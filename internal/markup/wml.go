package markup

import (
	"fmt"
	"strings"
)

// Deck is a WML document: a set of cards, the unit the WAP gateway ships to
// a microbrowser. WML is the "host language" of WAP in Table 3.
type Deck struct {
	Cards []*Card
}

// Card is one WML card: a screenful of content for a small display.
type Card struct {
	ID      string
	Title   string
	Content []*Node // subset: p, br, a, b, i, big, small, input, select/option, img, do
}

// wmlAllowed is the element subset a card's content may contain.
var wmlAllowed = map[string]bool{
	"p": true, "br": true, "a": true, "b": true, "i": true, "u": true,
	"big": true, "small": true, "em": true, "strong": true,
	"input": true, "select": true, "option": true, "img": true,
	"table": true, "tr": true, "td": true, "do": true, "go": true,
	"fieldset": true, "anchor": true, "prev": true, "refresh": true, "setvar": true,
}

// WML serializes the deck to textual WML.
func (d *Deck) WML() string {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0"?><wml>`)
	for _, c := range d.Cards {
		fmt.Fprintf(&b, `<card id="%s" title="%s">`, escapeAttr(c.ID), escapeAttr(c.Title))
		for _, n := range c.Content {
			n.render(&b)
		}
		b.WriteString(`</card>`)
	}
	b.WriteString(`</wml>`)
	return b.String()
}

// ParseWML parses textual WML into a Deck. Content outside cards is
// ignored; non-WML elements inside cards are dropped (tolerant parsing,
// like a microbrowser).
func ParseWML(src string) (*Deck, error) {
	root := Parse(src)
	wml := root.Find("wml")
	if wml == nil {
		return nil, fmt.Errorf("markup: no <wml> element")
	}
	d := &Deck{}
	for _, cardEl := range wml.FindAll("card") {
		card := &Card{ID: cardEl.Attr("id"), Title: cardEl.Attr("title")}
		for _, ch := range cardEl.Children {
			if n := filterWML(ch); n != nil {
				card.Content = append(card.Content, n)
			}
		}
		d.Cards = append(d.Cards, card)
	}
	if len(d.Cards) == 0 {
		return nil, fmt.Errorf("markup: deck has no cards")
	}
	return d, nil
}

// filterWML keeps text and allowed elements, recursively.
func filterWML(n *Node) *Node {
	if n.Type == TextNode {
		return n
	}
	if !wmlAllowed[n.Tag] {
		// Hoist the children of a disallowed element into a paragraph?
		// Microbrowsers typically drop the element but keep its text.
		if txt := strings.TrimSpace(n.InnerText()); txt != "" {
			return NewText(txt)
		}
		return nil
	}
	out := &Node{Type: ElementNode, Tag: n.Tag}
	for k, v := range n.Attrs {
		out.SetAttr(k, v)
	}
	for _, c := range n.Children {
		if f := filterWML(c); f != nil {
			out.Append(f)
		}
	}
	return out
}

// HTMLToWML implements the WAP gateway's translation: an HTML page becomes
// a WML deck. Headings and paragraph budgets split the body into cards so
// no card exceeds maxCardBytes of rendered content (small screens, small
// memories — Table 2's constraint). maxCardBytes <= 0 means a single card.
func HTMLToWML(html *Node, maxCardBytes int) *Deck {
	title := "untitled"
	if t := html.Find("title"); t != nil {
		if s := strings.TrimSpace(t.InnerText()); s != "" {
			title = s
		}
	}
	body := html.Find("body")
	if body == nil {
		body = html
	}

	deck := &Deck{}
	var cur *Card
	curBytes := 0
	newCard := func(t string) {
		cur = &Card{ID: fmt.Sprintf("c%d", len(deck.Cards)+1), Title: t}
		deck.Cards = append(deck.Cards, cur)
		curBytes = 0
	}
	newCard(title)

	var emit func(n *Node)
	emit = func(n *Node) {
		if n.Type == TextNode {
			if strings.TrimSpace(n.Text) == "" {
				return
			}
			p := NewElement("p", NewText(n.Text))
			addWithBudget(deck, &cur, &curBytes, maxCardBytes, title, p, newCard)
			return
		}
		switch n.Tag {
		case "script", "style", "head":
			return
		case "h1", "h2", "h3", "h4", "h5", "h6":
			// Headings start a new card titled by the heading.
			ht := strings.TrimSpace(n.InnerText())
			if ht == "" {
				ht = title
			}
			if maxCardBytes > 0 && (len(cur.Content) > 0 || len(deck.Cards) > 1) {
				newCard(ht)
			} else {
				cur.Title = ht
			}
			p := NewElement("p", NewElement("b", NewText(ht)))
			addWithBudget(deck, &cur, &curBytes, maxCardBytes, ht, p, newCard)
		case "p", "div", "li", "blockquote", "pre", "center", "td", "th":
			if converted := convertInline(n); converted != nil {
				addWithBudget(deck, &cur, &curBytes, maxCardBytes, cur.Title, converted, newCard)
			}
			// Recurse into nested block content (divs containing divs).
			for _, c := range n.Children {
				if c.Type == ElementNode && isBlock(c.Tag) {
					emit(c)
				}
			}
		case "a":
			if converted := convertInline(NewElement("p", n)); converted != nil {
				addWithBudget(deck, &cur, &curBytes, maxCardBytes, cur.Title, converted, newCard)
			}
		case "form":
			for _, inp := range n.FindAll("input") {
				p := NewElement("p")
				cp := NewElement("input")
				for k, v := range inp.Attrs {
					cp.SetAttr(k, v)
				}
				p.Append(cp)
				addWithBudget(deck, &cur, &curBytes, maxCardBytes, cur.Title, p, newCard)
			}
		default:
			for _, c := range n.Children {
				emit(c)
			}
		}
	}
	for _, c := range body.Children {
		emit(c)
	}
	if len(deck.Cards) > 1 && len(deck.Cards[len(deck.Cards)-1].Content) == 0 {
		deck.Cards = deck.Cards[:len(deck.Cards)-1]
	}
	return deck
}

func isBlock(tag string) bool {
	switch tag {
	case "p", "div", "ul", "ol", "li", "blockquote", "pre", "center", "table", "tr", "td", "th", "form",
		"h1", "h2", "h3", "h4", "h5", "h6":
		return true
	}
	return false
}

// addWithBudget appends a block to the current card, starting a new card
// when the byte budget is exceeded.
func addWithBudget(deck *Deck, cur **Card, curBytes *int, budget int, title string, block *Node, newCard func(string)) {
	sz := len(block.Render())
	if budget > 0 && *curBytes > 0 && *curBytes+sz > budget {
		newCard(title)
	}
	(*cur).Content = append((*cur).Content, block)
	*curBytes += sz
}

// convertInline maps an HTML block element to a WML paragraph with inline
// markup preserved where WML supports it. Returns nil for empty content.
func convertInline(n *Node) *Node {
	p := NewElement("p")
	var walk func(src *Node, dst *Node)
	walk = func(src *Node, dst *Node) {
		for _, c := range src.Children {
			switch {
			case c.Type == TextNode:
				if strings.TrimSpace(c.Text) != "" {
					dst.Append(NewText(c.Text))
				}
			case c.Tag == "a":
				a := NewElement("a")
				a.SetAttr("href", c.Attr("href"))
				a.Append(NewText(strings.TrimSpace(c.InnerText())))
				dst.Append(a)
			case c.Tag == "b" || c.Tag == "strong":
				b := NewElement("b")
				walk(c, b)
				dst.Append(b)
			case c.Tag == "i" || c.Tag == "em":
				i := NewElement("i")
				walk(c, i)
				dst.Append(i)
			case c.Tag == "br":
				dst.Append(NewElement("br"))
			case c.Tag == "img":
				img := NewElement("img")
				img.SetAttr("alt", c.Attr("alt"))
				img.SetAttr("src", c.Attr("src"))
				dst.Append(img)
			case isBlock(c.Tag):
				// handled by the block walker
			default:
				walk(c, dst)
			}
		}
	}
	walk(n, p)
	if len(p.Children) == 0 {
		return nil
	}
	return p
}
