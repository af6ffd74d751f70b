// Package sql implements a small SQL front-end over the plan algebra:
// single-block SELECT queries with WHERE (including implicit equi-joins),
// GROUP BY, HAVING, ORDER BY and LIMIT. It completes the paper's Fig. 1
// architecture (Parser → Rewriter → Builder → Execution engine); the
// evaluation workloads construct plans directly, as an optimizer would.
// It is the only SQL scanner and decides what every statement is: the wire
// server's $N parameters, comments, multi-statement strings and session
// statements (ParseUtility) go through the same lexer.
package sql

import (
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokQuoted // "double-quoted identifier", text verbatim; the parser rejects it
	tokParam  // $N placeholder, text verbatim
	tokSymbol // punctuation, operators, and any byte no other token claims
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// lexer tokenizes a SQL string.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src. Comments (-- to end of line, /* */ nested) are skipped,
// and a byte no token claims becomes a one-byte symbol the parser rejects
// at its offset, so the only lex errors are an unterminated quote or
// comment. On error the tokens before it come back too.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		if err := l.skip(); err != nil {
			return l.toks, err
		}
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		c := l.src[l.pos]
		var err error
		switch {
		case isIdentStart(rune(c)):
			l.ident()
		case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			l.number()
		case c == '\'':
			err = l.quoted(tokString, "string literal")
		case c == '"':
			err = l.quoted(tokQuoted, "quoted identifier")
		case c == '$' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.pos++
			l.scan(tokParam, l.pos-1, isDigit)
		default:
			l.symbol()
		}
		if err != nil {
			return l.toks, err
		}
	}
}

func isSpace(c byte) bool { return unicode.IsSpace(rune(c)) }
func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skip passes over whitespace and comments.
func (l *lexer) skip() error {
	for l.pos < len(l.src) {
		switch rest := l.src[l.pos:]; {
		case isSpace(rest[0]):
			l.pos++
		case strings.HasPrefix(rest, "--"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case strings.HasPrefix(rest, "/*"):
			start := l.pos
			for depth := 0; ; {
				if l.pos+1 >= len(l.src) {
					return errAt(start, "unterminated comment")
				}
				switch l.src[l.pos : l.pos+2] {
				case "/*":
					depth++
					l.pos += 2
				case "*/":
					depth--
					l.pos += 2
				default:
					l.pos++
				}
				if depth == 0 {
					break
				}
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(rune(c)) || isDigit(c)
}

// scan extends the token begun at start over every byte in accepts.
func (l *lexer) scan(kind tokKind, start int, in func(byte) bool) {
	for l.pos < len(l.src) && in(l.src[l.pos]) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: kind, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) ident() { l.scan(tokIdent, l.pos, isIdentPart) }

func (l *lexer) number() {
	seenDot := false
	l.scan(tokNumber, l.pos, func(c byte) bool {
		if c == '.' && !seenDot {
			seenDot = true
			return true
		}
		return isDigit(c)
	})
}

// quoted lexes a token delimited by the quote byte at l.pos, in which a
// doubled quote stands for one. A string's text is its unescaped body; a
// quoted identifier keeps its source text.
func (l *lexer) quoted(kind tokKind, what string) error {
	start := l.pos
	q := l.src[start]
	var b strings.Builder
	for l.pos++; l.pos < len(l.src); l.pos++ {
		c := l.src[l.pos]
		if c == q {
			if l.pos+1 >= len(l.src) || l.src[l.pos+1] != q {
				l.pos++
				text := b.String()
				if kind == tokQuoted {
					text = l.src[start:l.pos]
				}
				l.toks = append(l.toks, token{kind: kind, text: text, pos: start})
				return nil
			}
			l.pos++
		}
		b.WriteByte(c)
	}
	return errAt(start, "unterminated %s", what)
}

var twoCharSymbols = map[string]bool{"<=": true, ">=": true, "<>": true, "!=": true}

func (l *lexer) symbol() {
	start := l.pos
	l.pos++
	if l.pos < len(l.src) && twoCharSymbols[l.src[start:l.pos+1]] {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokSymbol, text: l.src[start:l.pos], pos: start})
}

// Split cuts a multi-statement text at its top-level semicolons (those
// outside quotes and comments) and returns the pieces that hold a token,
// trimmed of surrounding space. A lex error ends the cutting: the rest of
// the text is the last piece, and compiling it reports the error.
func Split(src string) []string {
	toks, err := lex(src)
	var out []string
	start, empty := 0, true
	for _, t := range toks {
		if holdsText(t) {
			empty = false
			continue
		}
		if !empty {
			out = append(out, trimSpace(src[start:t.pos]))
		}
		start, empty = t.pos+1, true
	}
	if err != nil {
		out = append(out, trimSpace(src[start:]))
	}
	return out
}

// holdsText reports whether t is part of a statement: neither the end of
// the text nor a ';' between statements.
func holdsText(t token) bool {
	return t.kind != tokEOF && (t.kind != tokSymbol || t.text != ";")
}

// trimSpace trims the bytes the lexer skips as space (strings.TrimSpace
// decodes UTF-8, which the lexer does not).
func trimSpace(s string) string {
	for len(s) > 0 && isSpace(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && isSpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	return s
}
