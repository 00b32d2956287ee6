package device

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"mcommerce/internal/imode"
	"mcommerce/internal/markup"
	"mcommerce/internal/simnet"
	"mcommerce/internal/wap"
	"mcommerce/internal/webserver"
)

// Page is a rendered document as the microbrowser presents it.
type Page struct {
	Title       string
	Text        string
	Links       []string // href targets in document order
	ContentType string
	// WireBytes is the payload size received over the air.
	WireBytes int
	// RenderTime is the CPU time spent parsing and laying out.
	RenderTime time.Duration
	// Screenfuls is how many screens of the station's display the text
	// occupies.
	Screenfuls int
	// Cards is the deck size for WML content (1 for cHTML/HTML pages).
	Cards int
}

// Fetcher abstracts the middleware transport a browser uses: WAP session or
// i-mode client.
type Fetcher interface {
	// Fetch retrieves origin's path, reporting payload, content type and
	// error.
	Fetch(origin simnet.Addr, path string, done func(payload []byte, contentType string, err error))
	// Submit posts a body to origin's path.
	Submit(origin simnet.Addr, path, contentType string, body []byte, done func(payload []byte, respType string, err error))
}

// WAPFetcher adapts an established wap.Session to the Fetcher interface.
type WAPFetcher struct {
	Session *wap.Session
}

var _ Fetcher = (*WAPFetcher)(nil)

// Fetch implements Fetcher over WSP Get.
func (f *WAPFetcher) Fetch(origin simnet.Addr, path string, done func([]byte, string, error)) {
	f.Session.Get(wap.URL{Origin: origin, Path: path}, func(rep *wap.Reply, err error) {
		if err != nil {
			done(nil, "", err)
			return
		}
		if rep.Status != 200 {
			done(nil, "", fmt.Errorf("device: status %d", rep.Status))
			return
		}
		done(rep.Payload, rep.ContentType, nil)
	})
}

// Submit implements Fetcher over WSP Post.
func (f *WAPFetcher) Submit(origin simnet.Addr, path, contentType string, body []byte, done func([]byte, string, error)) {
	f.Session.Post(wap.URL{Origin: origin, Path: path}, contentType, body, func(rep *wap.Reply, err error) {
		if err != nil {
			done(nil, "", err)
			return
		}
		if rep.Status != 200 {
			done(nil, "", fmt.Errorf("device: status %d", rep.Status))
			return
		}
		done(rep.Payload, rep.ContentType, nil)
	})
}

// IModeFetcher adapts an imode.Client to the Fetcher interface.
type IModeFetcher struct {
	Client *imode.Client
}

var _ Fetcher = (*IModeFetcher)(nil)

// Fetch implements Fetcher over the i-mode portal.
func (f *IModeFetcher) Fetch(origin simnet.Addr, path string, done func([]byte, string, error)) {
	f.Client.Get(origin, path, func(resp *webserver.Response, err error) {
		if err != nil {
			done(nil, "", err)
			return
		}
		if resp.Status != 200 {
			done(nil, "", fmt.Errorf("device: status %d", resp.Status))
			return
		}
		done(resp.Body, resp.Header("content-type"), nil)
	})
}

// Submit implements Fetcher over the i-mode portal.
func (f *IModeFetcher) Submit(origin simnet.Addr, path, contentType string, body []byte, done func([]byte, string, error)) {
	f.Client.Post(origin, path, contentType, body, func(resp *webserver.Response, err error) {
		if err != nil {
			done(nil, "", err)
			return
		}
		if resp.Status != 200 {
			done(nil, "", fmt.Errorf("device: status %d", resp.Status))
			return
		}
		done(resp.Body, resp.Header("content-type"), nil)
	})
}

// Browser is the station's microbrowser.
type Browser struct {
	station *Station
	fetcher Fetcher

	// PagesRendered counts successful renders.
	PagesRendered uint64
}

// NewBrowser attaches a microbrowser to a station using the given
// middleware transport.
func NewBrowser(st *Station, f Fetcher) *Browser {
	return &Browser{station: st, fetcher: f}
}

// Browse fetches and renders a page, enforcing the station's memory,
// battery and CPU constraints.
func (b *Browser) Browse(origin simnet.Addr, path string, done func(*Page, error)) {
	if !b.station.PoweredOn() {
		done(nil, ErrPoweredOff)
		return
	}
	b.fetcher.Fetch(origin, path, func(payload []byte, ct string, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		b.render(payload, ct, done)
	})
}

func (b *Browser) render(payload []byte, ct string, done func(*Page, error)) {
	st := b.station
	st.DrainRx(len(payload))
	if st.Battery() <= 0 {
		done(nil, ErrBatteryDead)
		return
	}
	// The page needs RAM for content plus parsed representation.
	need := len(payload) * 3
	if err := st.AllocRAM(need); err != nil {
		done(nil, err)
		return
	}
	renderTime := st.ProcessingDelay(len(payload))
	st.DrainCPU(renderTime)
	st.node.Sched().After(renderTime, func() {
		defer st.ReleaseRAM(need)
		page, err := b.layout(payload, ct)
		if err != nil {
			done(nil, err)
			return
		}
		page.WireBytes = len(payload)
		page.RenderTime = renderTime
		page.Screenfuls = st.ScreenfulsFor(len(page.Text))
		b.PagesRendered++
		done(page, nil)
	})
}

// Layout memo bounds, per station: at most layoutEntries pages of up to
// layoutMaxBytes payload bytes each. A full memo is emptied before the
// next insert.
const (
	layoutEntries  = 8
	layoutMaxBytes = 16 << 10
)

// layoutKey is everything a layout depends on.
type layoutKey struct {
	ct      string
	payload string
}

// layout parses content into a Page by type. Layout is a pure function of
// its key, so it is memoized on the station, which outlives the browsers
// built per transaction. Every call returns a Page of its own, Links
// included, that the caller may modify.
func (b *Browser) layout(payload []byte, ct string) (*Page, error) {
	switch ct {
	case webserver.TypeWMLC, webserver.TypeWML, webserver.TypeCHTML, webserver.TypeHTML, "":
	default:
		// Opaque content (downloads): no layout.
		return &Page{ContentType: ct, Cards: 0}, nil
	}
	memo := b.station.layouts
	if p, ok := memo[layoutKey{ct, string(payload)}]; ok {
		p.Links = slices.Clone(p.Links)
		return &p, nil
	}
	p, err := parsePage(payload, ct)
	if err != nil || len(payload) > layoutMaxBytes {
		return p, err
	}
	if memo == nil {
		memo = make(map[layoutKey]Page)
		b.station.layouts = memo
	} else if len(memo) >= layoutEntries {
		clear(memo)
	}
	kept := *p
	kept.Links = slices.Clone(p.Links)
	memo[layoutKey{ct, string(payload)}] = kept
	return p, nil
}

// parsePage parses markup content into a Page by type.
func parsePage(payload []byte, ct string) (*Page, error) {
	switch ct {
	case webserver.TypeWMLC:
		deck, err := markup.DecodeWMLC(payload)
		if err != nil {
			return nil, err
		}
		return pageFromDeck(deck, ct), nil
	case webserver.TypeWML:
		deck, err := markup.ParseWML(string(payload))
		if err != nil {
			return nil, err
		}
		return pageFromDeck(deck, ct), nil
	default:
		tree := markup.Parse(string(payload))
		p := &Page{ContentType: ct, Cards: 1}
		if t := tree.Find("title"); t != nil {
			p.Title = strings.TrimSpace(t.InnerText())
		}
		body := tree.Find("body")
		if body == nil {
			body = tree
		}
		p.Text = strings.TrimSpace(body.InnerText())
		for _, a := range tree.FindAll("a") {
			if href := a.Attr("href"); href != "" {
				p.Links = append(p.Links, href)
			}
		}
		return p, nil
	}
}

func pageFromDeck(deck *markup.Deck, ct string) *Page {
	p := &Page{ContentType: ct, Cards: len(deck.Cards)}
	var text strings.Builder
	for i, card := range deck.Cards {
		if i == 0 {
			p.Title = card.Title
		}
		for _, n := range card.Content {
			text.WriteString(n.InnerText())
			text.WriteByte(' ')
			for _, a := range n.FindAll("a") {
				if href := a.Attr("href"); href != "" {
					p.Links = append(p.Links, href)
				}
			}
		}
	}
	p.Text = strings.TrimSpace(text.String())
	return p
}
