package webserver_test

import (
	"strings"
	"testing"
	"time"

	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

type webTopo struct {
	net    *simnet.Network
	server *webserver.Server
	client *webserver.Client
	sNode  *simnet.Node
}

func newWebTopo(t testing.TB) *webTopo {
	t.Helper()
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	cn := net.NewNode("client")
	sn := net.NewNode("server")
	l := simnet.Connect(cn, sn, simnet.LAN)
	cn.SetDefaultRoute(l.IfaceA())
	sn.SetDefaultRoute(l.IfaceB())
	srv, err := webserver.New(mtcp.MustNewStack(sn), 80, mtcp.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &webTopo{
		net:    net,
		server: srv,
		client: webserver.NewClient(mtcp.MustNewStack(cn), mtcp.Options{}),
		sNode:  sn,
	}
}

func (w *webTopo) run(t testing.TB) {
	t.Helper()
	if err := w.net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGetRoundTrip(t *testing.T) {
	w := newWebTopo(t)
	w.server.Handle("/hello", func(r *webserver.Request) *webserver.Response {
		return webserver.Text("hi " + r.Query["name"])
	})
	var got *webserver.Response
	var gotErr error
	w.client.Get(w.server.Addr(), "/hello?name=ann", nil, func(r *webserver.Response, err error) {
		got, gotErr = r, err
	})
	w.run(t)
	if gotErr != nil {
		t.Fatalf("Get: %v", gotErr)
	}
	if got.Status != 200 || string(got.Body) != "hi ann" {
		t.Errorf("response = %d %q", got.Status, got.Body)
	}
	if got.Header("Content-Type") != webserver.TypeText {
		t.Errorf("content type = %q", got.Header("Content-Type"))
	}
}

func TestPostBody(t *testing.T) {
	w := newWebTopo(t)
	var received []byte
	w.server.Handle("/submit", func(r *webserver.Request) *webserver.Response {
		received = append([]byte(nil), r.Body...)
		return webserver.NewResponse(200, webserver.TypeJSON, []byte(`{"ok":true}`))
	})
	body := []byte(`{"qty": 3, "item": "widget"}`)
	var got *webserver.Response
	req := &webserver.Request{
		Method:  "POST",
		Path:    "/submit",
		Headers: map[string]string{"content-type": webserver.TypeJSON},
		Body:    body,
	}
	w.client.Do(w.server.Addr(), req, func(r *webserver.Response, err error) {
		if err != nil {
			t.Errorf("Post: %v", err)
			return
		}
		got = r
	})
	w.run(t)
	if string(received) != string(body) {
		t.Errorf("server saw body %q", received)
	}
	if got == nil || got.Status != 200 {
		t.Fatalf("response = %+v", got)
	}
}

func TestNotFound(t *testing.T) {
	w := newWebTopo(t)
	var got *webserver.Response
	w.client.Get(w.server.Addr(), "/missing", nil, func(r *webserver.Response, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		got = r
	})
	w.run(t)
	if got == nil || got.Status != 404 {
		t.Fatalf("status = %+v, want 404", got)
	}
	if w.server.Stats().NotFound != 1 {
		t.Errorf("NotFound stat = %d", w.server.Stats().NotFound)
	}
}

func TestPrefixRouting(t *testing.T) {
	w := newWebTopo(t)
	w.server.Handle("/api/", func(r *webserver.Request) *webserver.Response {
		return webserver.Text("api")
	})
	w.server.Handle("/api/v2/", func(r *webserver.Request) *webserver.Response {
		return webserver.Text("v2")
	})
	w.server.Handle("/api/v2/exact", func(r *webserver.Request) *webserver.Response {
		return webserver.Text("exact")
	})
	cases := map[string]string{
		"/api/x":        "api",
		"/api/v2/x":     "v2",
		"/api/v2/exact": "exact",
	}
	for path, want := range cases {
		var got string
		w.client.Get(w.server.Addr(), path, nil, func(r *webserver.Response, err error) {
			if err != nil {
				t.Errorf("Get %s: %v", path, err)
				return
			}
			got = string(r.Body)
		})
		w.run(t)
		if got != want {
			t.Errorf("route %s = %q, want %q", path, got, want)
		}
	}
}

func TestContentNegotiation(t *testing.T) {
	w := newWebTopo(t)
	w.server.Handle("/page", func(r *webserver.Request) *webserver.Response {
		switch accept := r.Header("Accept"); {
		case accept == "" || strings.Contains(accept, webserver.TypeWML):
			return webserver.NewResponse(200, webserver.TypeWML, []byte("<wml/>"))
		case strings.Contains(accept, webserver.TypeHTML):
			return webserver.HTML("<html/>")
		default:
			return webserver.Error(406, "no acceptable representation")
		}
	})
	cases := []struct {
		accept string
		want   string
	}{
		{"text/vnd.wap.wml", webserver.TypeWML},
		{"text/html", webserver.TypeHTML},
		{"text/html, text/vnd.wap.wml", webserver.TypeWML}, // WML first
		{"", webserver.TypeWML},
	}
	for _, tc := range cases {
		var got string
		hdr := map[string]string{}
		if tc.accept != "" {
			hdr["accept"] = tc.accept
		}
		w.client.Get(w.server.Addr(), "/page", hdr, func(r *webserver.Response, err error) {
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			got = r.Header("content-type")
		})
		w.run(t)
		if got != tc.want {
			t.Errorf("accept %q -> %q, want %q", tc.accept, got, tc.want)
		}
	}
}

func TestLargeResponseBody(t *testing.T) {
	w := newWebTopo(t)
	big := make([]byte, 300_000)
	for i := range big {
		big[i] = byte(i)
	}
	w.server.Handle("/big", func(r *webserver.Request) *webserver.Response {
		return webserver.NewResponse(200, webserver.TypeBytes, big)
	})
	var got []byte
	w.client.Get(w.server.Addr(), "/big", nil, func(r *webserver.Response, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		got = r.Body
	})
	w.run(t)
	if len(got) != len(big) {
		t.Fatalf("body = %d bytes, want %d", len(got), len(big))
	}
	for i := range got {
		if got[i] != big[i] {
			t.Fatalf("body corrupted at %d", i)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	w := newWebTopo(t)
	w.server.Handle("/n", func(r *webserver.Request) *webserver.Response {
		return webserver.Text(r.Query["i"])
	})
	const n = 20
	got := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		w.client.Do(w.server.Addr(), &webserver.Request{
			Method: "GET", Path: "/n", Query: map[string]string{"i": string(rune('a' + i))},
		}, func(r *webserver.Response, err error) {
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			got[i] = string(r.Body)
		})
	}
	w.run(t)
	for i := 0; i < n; i++ {
		if got[i] != string(rune('a'+i)) {
			t.Errorf("response %d = %q", i, got[i])
		}
	}
	if w.server.Stats().Requests != n {
		t.Errorf("Requests = %d, want %d", w.server.Stats().Requests, n)
	}
}

func TestNilHandlerResponseIs500(t *testing.T) {
	w := newWebTopo(t)
	w.server.Handle("/nil", func(r *webserver.Request) *webserver.Response { return nil })
	var status int
	w.client.Get(w.server.Addr(), "/nil", nil, func(r *webserver.Response, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		status = r.Status
	})
	w.run(t)
	if status != 500 {
		t.Errorf("status = %d, want 500", status)
	}
}

func TestDialFailureSurfacesError(t *testing.T) {
	w := newWebTopo(t)
	var gotErr error
	fired := false
	w.client.Get(simnet.Addr{Node: w.sNode.ID, Port: 9999}, "/x", nil, func(r *webserver.Response, err error) {
		gotErr, fired = err, true
	})
	w.run(t)
	if !fired || gotErr == nil {
		t.Errorf("err = %v (fired=%v); want dial failure", gotErr, fired)
	}
}
