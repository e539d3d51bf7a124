package lexer

import "testing"

// Lex scans all of src: its tokens, ending in the EOF token, or the first
// error.
func Lex(src string) ([]Token, error) {
	s := NewScanner(src)
	var toks []Token
	for {
		tok, err := s.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == EOF {
			return toks, nil
		}
	}
}

func kinds(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex(%q): %v", src, err)
	}
	return toks
}

func TestIdentifiersAndKeywords(t *testing.T) {
	toks := kinds(t, "var $x _y abc if instanceof")
	want := []struct {
		kind Kind
		text string
	}{
		{Keyword, "var"}, {Ident, "$x"}, {Ident, "_y"}, {Ident, "abc"},
		{Keyword, "if"}, {Keyword, "instanceof"}, {EOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = (%v, %q), want (%v, %q)", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"0", 0}, {"42", 42}, {"3.25", 3.25}, {".5", 0.5},
		{"1e3", 1000}, {"2.5e-2", 0.025}, {"0x10", 16}, {"0xff", 255},
		{"1E6", 1e6}, {"7.", 7},
	}
	for _, c := range cases {
		toks := kinds(t, c.src)
		if toks[0].Kind != Number || toks[0].Num != c.want {
			t.Errorf("Lex(%q) = %v (%v), want Number %v", c.src, toks[0].Text, toks[0].Num, c.want)
		}
	}
}

func TestNumberErrors(t *testing.T) {
	for _, src := range []string{"0x", "1e", "3abc", "1.2.3"} {
		if _, err := Lex(src); err == nil && src != "1.2.3" {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`"hello"`, "hello"},
		{`'world'`, "world"},
		{`"a\nb"`, "a\nb"},
		{`"tab\there"`, "tab\there"},
		{`"\x41"`, "A"},
		{`"Aé"`, "Aé"},
		{`"quote\"inside"`, `quote"inside`},
		{`'single\'q'`, "single'q"},
		{`"back\\slash"`, `back\slash`},
		{`""`, ""},
	}
	for _, c := range cases {
		toks := kinds(t, c.src)
		if toks[0].Kind != String || toks[0].Str != c.want {
			t.Errorf("Lex(%s) = %q, want %q", c.src, toks[0].Str, c.want)
		}
	}
}

func TestStringErrors(t *testing.T) {
	for _, src := range []string{`"abc`, `"ab` + "\n" + `c"`, `"\x4"`, `"\u00"`} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestPunctuatorsMaximalMunch(t *testing.T) {
	toks := kinds(t, "a===b >>>= c++ + ++d <= =>")
	var got []string
	for _, tok := range toks {
		if tok.Kind == Punct {
			got = append(got, tok.Text)
		}
	}
	want := []string{"===", ">>>=", "++", "+", "++", "<=", "=>"}
	if len(got) != len(want) {
		t.Fatalf("puncts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("punct %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestComments(t *testing.T) {
	toks := kinds(t, "a // line comment\n/* block\ncomment */ b")
	if len(toks) != 3 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Fatalf("comments not skipped: %v", toks)
	}
	if _, err := Lex("/* unterminated"); err == nil {
		t.Error("unterminated block comment should fail")
	}
}

func TestNewlineTracking(t *testing.T) {
	toks := kinds(t, "a\nb c")
	if !toks[0].NLAfter {
		t.Error("token a should have NLAfter")
	}
	if toks[1].NLAfter {
		t.Error("token b should not have NLAfter")
	}
	if toks := kinds(t, "a \"b\\\nc\" d"); toks[0].NLAfter || toks[1].NLAfter {
		t.Error("a line continuation in a string is no line break between tokens")
	}
}

// TestScannerReadsPastTheToken: a token comes back with what follows it read,
// so its NLAfter needs no later token, and an unterminated comment is the
// error of the token before it.
func TestScannerReadsPastTheToken(t *testing.T) {
	s := NewScanner("return /* a\nb */ 1")
	if tok, err := s.Next(); err != nil || tok.Text != "return" || !tok.NLAfter {
		t.Errorf("first Next = %+v, %v; want return with NLAfter", tok, err)
	}
	s = NewScanner("a /* unterminated")
	if tok, err := s.Next(); err == nil || err.Error() != "1:18: unterminated block comment" {
		t.Errorf("first Next = %+v, %v; want the comment's error", tok, err)
	}
	s = NewScanner("a")
	for i, want := range []Kind{Ident, EOF, EOF} {
		if tok, err := s.Next(); err != nil || tok.Kind != want {
			t.Errorf("Next #%d = %+v, %v; want %v", i, tok, err, want)
		}
	}
}

func TestPositions(t *testing.T) {
	toks := kinds(t, "a\n  bb\n    c")
	wantPos := [][2]int{{1, 1}, {2, 3}, {3, 5}}
	for i, w := range wantPos {
		if toks[i].Line != w[0] || toks[i].Col != w[1] {
			t.Errorf("token %d at %d:%d, want %d:%d", i, toks[i].Line, toks[i].Col, w[0], w[1])
		}
	}
}

func TestUnexpectedCharacter(t *testing.T) {
	if _, err := Lex("a # b"); err == nil {
		t.Error("Lex should reject #")
	}
}
