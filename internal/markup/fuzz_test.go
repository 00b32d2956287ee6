package markup

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// Property: Parse never panics and always yields a renderable tree, for
// arbitrary byte soup (browsers cannot afford to crash on bad markup, and
// neither can the gateway).
func TestParseNeverPanicsProperty(t *testing.T) {
	prop := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		doc := Parse(s)
		_ = doc.Render()
		_ = doc.InnerText()
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: rendering is a fixpoint after one round trip — Parse(Render(x))
// renders identically to Render(x). (Parse(x) itself may normalize.)
func TestRenderFixpointProperty(t *testing.T) {
	prop := func(s string) bool {
		once := Parse(s).Render()
		twice := Parse(once).Render()
		return once == twice
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the HTML->WML and HTML->cHTML translators never panic and
// always produce parseable output on arbitrary input.
func TestTranslatorsTotalProperty(t *testing.T) {
	prop := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		doc := Parse(s)
		deck := HTMLToWML(doc, 512)
		if len(deck.Cards) == 0 {
			return false // a deck always has at least the first card
		}
		if _, err := ParseWML(deck.WML()); err != nil {
			return false
		}
		ch := HTMLToCHTML(doc)
		_ = RenderCHTML(ch)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: WMLC decoding never panics on arbitrary bytes (the
// microbrowser receives these from the air).
func TestDecodeWMLCNeverPanicsProperty(t *testing.T) {
	prop := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = DecodeWMLC(b)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Adversarial corpus: inputs that have broken real parsers.
func TestParseAdversarialCorpus(t *testing.T) {
	corpus := []string{
		"",
		"<",
		"<>",
		"< >",
		"</>",
		"<!---->",
		"<!--",
		"<!",
		"<a href=>x</a>",
		"<a href='unterminated>x",
		`<a href="unterminated>x`,
		"<p><p><p><p><p>",
		strings.Repeat("<div>", 2000),
		strings.Repeat("</div>", 2000),
		"<br/><br /><br\t/>",
		"&;&&amp&amp;;&#",
		"<a b=c d='e' f=\"g\" h>text",
		"<A HREF='X'>case</A>",
		"<p a=1 a=2>dup attr</p>",
		"\x00\x01\x02<p>\x03</p>",
		"<wml><card><card></wml>",
	}
	for _, src := range corpus {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", src, r)
				}
			}()
			doc := Parse(src)
			_ = doc.Render()
		}()
	}
}

// FuzzDecodeWMLC feeds arbitrary bytes to the WMLC decoder, which the
// microbrowser runs on whatever arrives from the air. The decoder must
// never panic, and any input it accepts must re-encode to a fixpoint:
// the canonical encoding of the decoded deck decodes and re-encodes to
// the same bytes. The checked-in corpus holds the round-trip decks and
// the garbage inputs of wbxml_test.go.
func FuzzDecodeWMLC(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		deck, err := DecodeWMLC(b)
		if err != nil {
			return
		}
		once := EncodeWMLC(deck)
		again, err := DecodeWMLC(once)
		if err != nil {
			t.Fatalf("canonical encoding %x of accepted input does not decode: %v", once, err)
		}
		if twice := EncodeWMLC(again); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixpoint:\n once: %x\ntwice: %x", once, twice)
		}
	})
}
