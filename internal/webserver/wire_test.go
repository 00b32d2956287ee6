package webserver

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
)

// corpusMessages parses the wire input of every seed in the FuzzParser
// corpus, and of random well-formed streams (bodies up to 3,000 bytes),
// and returns the requests and responses they hold.
func corpusMessages(t *testing.T) ([]*Request, []*Response) {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzParser/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzParser corpus: %v", err)
	}
	var reqs []*Request
	var resps []*Response
	parse := func(wire []byte) {
		p := &parser{
			onRequest:  func(r *Request) { reqs = append(reqs, r) },
			onResponse: func(r *Response) { resps = append(resps, r) },
			onError:    func(error) {},
		}
		p.feed(wire)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// A seed file is a header line, then one []byte("...") line per
		// fuzz argument; the first argument is the wire input.
		lines := strings.Split(string(src), "\n")
		wire, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		parse([]byte(wire))
	}
	rng := rand.New(rand.NewSource(1))
	for range 20 {
		parse(randomStream(rng))
	}
	if len(reqs) == 0 || len(resps) == 0 {
		t.Fatalf("corpus holds %d requests and %d responses, want some of each", len(reqs), len(resps))
	}
	return reqs, resps
}

// wirePair is a client and a server node joined by a LAN link, each with
// a TCP stack.
func wirePair() (net *simnet.Network, client, server *mtcp.Stack) {
	net = simnet.NewNetwork(simnet.NewScheduler(1))
	cn, sn := net.NewNode("client"), net.NewNode("server")
	l := simnet.Connect(cn, sn, simnet.LAN)
	cn.SetDefaultRoute(l.IfaceA())
	sn.SetDefaultRoute(l.IfaceB())
	return net, mtcp.MustNewStack(cn), mtcp.MustNewStack(sn)
}

// For every message in the parser's fuzz corpus, the bytes a server
// connection carries for a response, and a client connection for a
// request, are the message's encoding: head and body handed to Send as
// two parts arrive as one message.
func TestConnCarriesEncodedMessage(t *testing.T) {
	reqs, resps := corpusMessages(t)
	t.Logf("%d requests, %d responses", len(reqs), len(resps))
	for i, resp := range resps {
		net, cs, ss := wirePair()
		srv, err := New(ss, 80, mtcp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv.Handle("/", func(*Request) *Response { return resp })
		var got []byte
		cs.Dial(srv.Addr(), mtcp.Options{}, func(c *mtcp.Conn, err error) {
			if err != nil {
				t.Fatal(err)
			}
			c.OnData(func(b []byte) { got = append(got, b...) })
			c.Send([]byte("GET / HTTP/1.0\r\n\r\n"))
		})
		if err := net.Sched.RunFor(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if want := encodeResponse(resp); !bytes.Equal(got, want) {
			t.Errorf("response %d: server carried %q, want %q", i, got, want)
		}
	}
	for i, req := range reqs {
		net, cs, ss := wirePair()
		var got []byte
		if err := ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
			c.OnData(func(b []byte) { got = append(got, b...) })
		}); err != nil {
			t.Fatal(err)
		}
		NewClient(cs, mtcp.Options{}).Do(simnet.Addr{Node: ss.Node().ID, Port: 80}, req, func(*Response, error) {})
		if err := net.Sched.RunFor(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if want := encodeRequest(req); !bytes.Equal(got, want) {
			t.Errorf("request %d: client carried %q, want %q", i, got, want)
		}
	}
}
