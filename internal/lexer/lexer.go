// Package lexer tokenizes JavaScript source for the parser. It handles the
// full lexical grammar the repository's JS subset needs: identifiers and
// keywords, decimal/hex/exponent numbers, single- and double-quoted strings
// with escapes, line and block comments, all multi-character punctuators,
// and the newline tracking required for automatic semicolon insertion.
package lexer

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies tokens.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Keyword
	Number
	String
	Punct
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "eof"
	case Ident:
		return "identifier"
	case Keyword:
		return "keyword"
	case Number:
		return "number"
	case String:
		return "string"
	case Punct:
		return "punctuator"
	}
	return "unknown"
}

// Token is a single lexical token.
type Token struct {
	Kind    Kind
	Text    string  // identifier name, keyword, punctuator, or raw literal
	Num     float64 // value for Number tokens
	Str     string  // decoded value for String tokens
	Line    int
	Col     int
	NLAfter bool // a line terminator follows this token (drives ASI)
}

// Error is a lexical error with a position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

var keywords = map[string]bool{
	"break": true, "case": true, "catch": true, "continue": true,
	"const": true, "default": true, "delete": true, "do": true,
	"else": true, "false": true, "finally": true, "for": true,
	"function": true, "if": true, "in": true, "instanceof": true,
	"let": true, "new": true, "null": true, "return": true,
	"switch": true, "this": true, "throw": true, "true": true,
	"try": true, "typeof": true, "var": true, "void": true, "while": true,
}

// puncts holds all punctuators, longest first so maximal munch works.
var puncts = []string{
	">>>=", "===", "!==", ">>>", "<<=", ">>=", "**=",
	"=>", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "**",
	"{", "}", "(", ")", "[", "]", ";", ",", "<", ">", "+", "-", "*", "/",
	"%", "&", "|", "^", "!", "~", "?", ":", "=", ".",
}

// Scanner reads the tokens of a source one at a time, for a parser that
// pulls them as it goes.
type Scanner struct {
	src        string
	pos        int
	line, col  int
	sawNewline bool
}

// NewScanner returns a scanner positioned before the first token of src.
func NewScanner(src string) Scanner { return Scanner{src: src, line: 1, col: 1} }

// Next returns the next token: an EOF token at the end of the source, and on
// every call after it. Before it returns, it reads past the space and
// comments that follow the token, so NLAfter is already set, and an
// unterminated comment is reported with the token before it.
func (l *Scanner) Next() (Token, error) {
	tok, err := l.token()
	if err != nil {
		return Token{}, err
	}
	l.sawNewline = false
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok.NLAfter = l.sawNewline
	return tok, nil
}

func (l *Scanner) errf(format string, args ...any) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Scanner) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Scanner) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Scanner) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
		l.sawNewline = true
	} else {
		l.col++
	}
	return c
}

func (l *Scanner) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *Scanner) token() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Line: line, Col: col}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := Ident
		if keywords[text] {
			kind = Keyword
		}
		return Token{Kind: kind, Text: text, Line: line, Col: col}, nil
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		return l.number(line, col)
	case c == '"' || c == '\'':
		return l.stringLit(line, col)
	}
	for _, p := range puncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			for range p {
				l.advance()
			}
			return Token{Kind: Punct, Text: p, Line: line, Col: col}, nil
		}
	}
	return Token{}, l.errf("unexpected character %q", c)
}

func (l *Scanner) number(line, col int) (Token, error) {
	start := l.pos
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		if !isHexDigit(l.peek()) {
			return Token{}, l.errf("malformed hex literal")
		}
		for l.pos < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
		v, err := strconv.ParseUint(l.src[start+2:l.pos], 16, 64)
		if err != nil {
			return Token{}, l.errf("malformed hex literal: %v", err)
		}
		return Token{Kind: Number, Text: l.src[start:l.pos], Num: float64(v), Line: line, Col: col}, nil
	}
	for l.pos < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' {
		l.advance()
		for l.pos < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if !isDigit(l.peek()) {
			return Token{}, l.errf("malformed exponent")
		}
		for l.pos < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	text := l.src[start:l.pos]
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return Token{}, l.errf("malformed number %q: %v", text, err)
	}
	if l.pos < len(l.src) && isIdentStart(l.peek()) {
		return Token{}, l.errf("identifier starts immediately after number")
	}
	return Token{Kind: Number, Text: text, Num: v, Line: line, Col: col}, nil
}

func (l *Scanner) stringLit(line, col int) (Token, error) {
	quote := l.advance()
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return Token{}, l.errf("unterminated string")
		}
		c := l.peek()
		if c == '\n' {
			return Token{}, l.errf("newline in string literal")
		}
		l.advance()
		if c == quote {
			break
		}
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		if l.pos >= len(l.src) {
			return Token{}, l.errf("unterminated escape")
		}
		e := l.advance()
		switch e {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case 'b':
			b.WriteByte('\b')
		case 'f':
			b.WriteByte('\f')
		case 'v':
			b.WriteByte('\v')
		case '0':
			b.WriteByte(0)
		case 'x':
			if l.pos+1 >= len(l.src) || !isHexDigit(l.peek()) || !isHexDigit(l.peek2()) {
				return Token{}, l.errf("malformed \\x escape")
			}
			h := string([]byte{l.advance(), l.advance()})
			v, _ := strconv.ParseUint(h, 16, 8)
			b.WriteByte(byte(v))
		case 'u':
			if l.pos+3 >= len(l.src) {
				return Token{}, l.errf("malformed \\u escape")
			}
			var h [4]byte
			for i := 0; i < 4; i++ {
				if !isHexDigit(l.peek()) {
					return Token{}, l.errf("malformed \\u escape")
				}
				h[i] = l.advance()
			}
			v, _ := strconv.ParseUint(string(h[:]), 16, 32)
			if v >= 0xD800 && v <= 0xDFFF {
				// Lone surrogate: keep its natural 3-byte (WTF-8) encoding
				// so "\ud800".charCodeAt(0) reads back 0xD800 — WriteRune
				// would mangle it to U+FFFD.
				b.WriteByte(0xE0 | byte(v>>12))
				b.WriteByte(0x80 | byte(v>>6&0x3F))
				b.WriteByte(0x80 | byte(v&0x3F))
			} else {
				b.WriteRune(rune(v))
			}
		case '\n':
			// Line continuation: contributes nothing.
		default:
			b.WriteByte(e)
		}
	}
	return Token{Kind: String, Text: l.src[:0], Str: b.String(), Line: line, Col: col}, nil
}
