package policy

// HTMLContext is the incremental HTML output-context state machine the
// flow filter drives while walking a page's literal output (inline HTML
// chunks and string literals fed to contextual sinks, in source order).
// When a dynamic value is emitted, Current() names the context it lands
// in — "html" (element body), "attr" (inside a tag: tag internals and
// attribute values), or "js" (inside a <script> element) — and the
// policy's context table supplies the matching precondition bound.
//
// The machine deliberately assumes dynamic output does not change the
// parser state: that non-interference is exactly the property the
// per-context bounds enforce, so the assumption is self-consistent. It
// is a lexical approximation of the HTML5 tokenizer, sufficient for the
// template-style PHP the subset targets; constructs it cannot track
// (document.write chains, foreign content) degrade to the enclosing
// context's bound.
type HTMLContext struct {
	state  ctxState
	quote  byte   // active attribute-value quote in stateAttrVal
	tag    []byte // lowered name of the tag being opened
	closer bool   // current tag is a closing tag (</...)
	named  bool   // tag name fully collected
	slash  bool   // previous byte inside a tag was '/' (self-closing)
	match  int    // progress through "<!--", "-->", or "</script"
}

type ctxState int

const (
	stateText      ctxState = iota
	stateTagOpen            // just consumed '<'
	stateBang               // consumed "<!", matching toward "<!--"
	stateComment            // inside <!-- ... -->, matching toward "-->"
	stateTag                // inside <tag ...>, outside any quoted value
	stateAttrVal            // inside a quoted attribute value
	stateScript             // inside <script> ... matching toward "</script"
	stateScriptEnd          // matched "</script", skipping to '>'
)

// Context names produced by the machine.
const (
	ContextHTML = "html"
	ContextAttr = "attr"
	ContextJS   = "js"
)

// NewHTMLContext returns a machine positioned in an HTML body.
func NewHTMLContext() *HTMLContext {
	return &HTMLContext{state: stateText}
}

// Current names the context a dynamic value emitted now would land in.
func (h *HTMLContext) Current() string {
	switch h.state {
	case stateScript, stateScriptEnd:
		return ContextJS
	case stateTagOpen, stateBang, stateTag, stateAttrVal:
		return ContextAttr
	default:
		// Body text and comments: an unescaped "-->" or "<script" breaks
		// out of either, so both take the body bound.
		return ContextHTML
	}
}

// Feed advances the machine over literal output. Text may be split at
// arbitrary byte boundaries across calls.
func (h *HTMLContext) Feed(text string) {
	for i := 0; i < len(text); i++ {
		h.step(text[i])
	}
}

func (h *HTMLContext) step(b byte) {
	switch h.state {
	case stateText:
		if b == '<' {
			h.state = stateTagOpen
			h.tag = h.tag[:0]
			h.closer = false
			h.named = false
			h.slash = false
		}

	case stateTagOpen:
		switch {
		case b == '!':
			h.state = stateBang
			h.match = 0
		case b == '/':
			h.closer = true
			h.state = stateTag
		case isAlpha(b):
			h.state = stateTag
			h.tag = append(h.tag, lowerByte(b))
			// The name continues in stateTag until a delimiter.
		default:
			// "< " and other non-tags are body text ("1 < 2").
			h.state = stateText
		}

	case stateBang:
		// Match "--" to enter a comment; anything else (<!DOCTYPE ...,
		// <![CDATA[ approximated) stays tag-like until '>'.
		if b == '-' {
			h.match++
			if h.match == 2 {
				h.state = stateComment
				h.match = 0
			}
			return
		}
		if b == '>' {
			h.state = stateText
			return
		}
		h.named = true
		h.state = stateTag

	case stateComment:
		switch {
		case b == '-':
			if h.match < 2 {
				h.match++
			}
		case b == '>' && h.match >= 2:
			h.state = stateText
			h.match = 0
		default:
			h.match = 0
		}

	case stateTag:
		if !h.named {
			if isAlnum(b) || b == '-' || b == ':' {
				h.tag = append(h.tag, lowerByte(b))
				return
			}
			h.named = true
		}
		switch b {
		case '"', '\'':
			h.quote = b
			h.state = stateAttrVal
			h.slash = false
		case '>':
			if !h.closer && !h.slash && string(h.tag) == "script" {
				h.state = stateScript
				h.match = 0
			} else {
				h.state = stateText
			}
		default:
			h.slash = b == '/'
		}

	case stateAttrVal:
		if b == h.quote {
			h.state = stateTag
		}

	case stateScript:
		// Case-insensitive incremental match of "</script".
		const end = "</script"
		if lowerByte(b) == end[h.match] {
			h.match++
			if h.match == len(end) {
				h.state = stateScriptEnd
				h.match = 0
			}
			return
		}
		// A failed match may restart at '<'.
		if b == '<' {
			h.match = 1
		} else {
			h.match = 0
		}

	case stateScriptEnd:
		if b == '>' {
			h.state = stateText
		}
	}
}

func isAlpha(b byte) bool {
	return (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

func isAlnum(b byte) bool {
	return isAlpha(b) || (b >= '0' && b <= '9')
}

func lowerByte(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + ('a' - 'A')
	}
	return b
}
