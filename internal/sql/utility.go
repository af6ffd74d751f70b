package sql

import (
	"fmt"
	"slices"
	"strings"
)

// Utility is a parsed session statement: one a server answers from session
// state, without the engine.
type Utility struct {
	// Tag is the statement's command tag: SET, SHOW, RESET, BEGIN, COMMIT,
	// ROLLBACK or DISCARD ALL, or "" for the empty statement (a text that
	// holds no token but semicolons).
	Tag string
	// Name is the SET, SHOW or RESET parameter, lower-cased ("all" for
	// RESET ALL).
	Name string
	// Value is SET's value: a string literal's body, or a word or signed
	// number as written.
	Value string
}

// utilityTags maps the first word of each session statement to its tag.
var utilityTags = map[string]string{
	"set": "SET", "show": "SHOW", "reset": "RESET", "begin": "BEGIN", "start": "BEGIN",
	"commit": "COMMIT", "end": "COMMIT", "rollback": "ROLLBACK", "discard": "DISCARD ALL",
}

// ParseUtility parses src as a session statement: SET [SESSION|LOCAL] name
// {=|TO} value, SHOW name, RESET name|ALL, BEGIN, START TRANSACTION,
// COMMIT, END, ROLLBACK or DISCARD ALL (BEGIN, COMMIT, END and ROLLBACK
// take an optional WORK or TRANSACTION), or the empty statement. A text
// whose first word starts none of these is not a session statement:
// ParseUtility returns nil and no error, and the text is
// CompileStatement's. Syntax errors are positioned *Errors.
func ParseUtility(src string) (*Utility, error) {
	toks, err := lex(src)
	if len(toks) == 0 || toks[0].kind != tokIdent {
		if err == nil && !slices.ContainsFunc(toks, holdsText) {
			return &Utility{}, nil
		}
		return nil, nil
	}
	verb := strings.ToLower(toks[0].text)
	tag, ok := utilityTags[verb]
	if !ok {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, pos: 1}
	u := &Utility{Tag: tag}
	if err := p.end(p.utility(verb, u)); err != nil {
		return nil, err
	}
	return u, nil
}

// utility parses the words after a session statement's verb into u.
func (p *parser) utility(verb string, u *Utility) (err error) {
	switch verb {
	case "set":
		if !p.acceptKw("session") {
			p.acceptKw("local")
		}
		if u.Name, err = p.ident(); err != nil {
			return err
		}
		if !p.acceptSym("=") && !p.acceptKw("to") {
			return fmt.Errorf("sql: expected = or TO, got %q", p.cur().text)
		}
		sign := ""
		if p.acceptSym("-") {
			sign = "-"
		}
		t := p.cur()
		if t.kind != tokNumber && (sign != "" || t.kind != tokString && t.kind != tokIdent) {
			return fmt.Errorf("sql: expected a SET value, got %q", t.text)
		}
		p.pos++
		u.Value = sign + t.text
	case "show", "reset":
		u.Name, err = p.ident()
	case "start":
		err = p.expectKw("transaction")
	case "discard":
		err = p.expectKw("all")
	default:
		if !p.acceptKw("work") {
			p.acceptKw("transaction")
		}
	}
	u.Name = strings.ToLower(u.Name)
	return err
}
