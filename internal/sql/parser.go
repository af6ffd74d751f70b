package sql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"recycledb/internal/expr"
	"recycledb/internal/vector"
)

// AST types ---------------------------------------------------------------

// selectStmt is a parsed single-block SELECT.
type selectStmt struct {
	items   []selectItem
	tables  []tableRef
	where   expr.Expr
	groupBy []string
	having  expr.Expr
	orderBy []orderItem
	limit   int // -1 if absent
	nparams int // parameters bound: ? placeholders, or the largest $N
}

type selectItem struct {
	ex   expr.Expr // nil for aggregates
	agg  *aggItem
	star bool
	as   string
}

type aggItem struct {
	fn  string // sum, count, avg, min, max
	arg expr.Expr
}

type tableRef struct {
	name  string
	alias string
	// fn args when the ref is a table function call.
	fnArgs []vector.Datum
}

type orderItem struct {
	col  string
	desc bool
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks    []token
	pos     int
	nparams int
	style   byte // '?' or '$' once the statement has a parameter
}

// newParser lexes src for parsing. Quoted identifiers lex (so Split keeps
// a quoted ';' whole) but the grammar has none.
func newParser(src string) (*parser, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	for _, t := range toks {
		if t.kind == tokQuoted {
			return nil, errAt(t.pos, "quoted identifiers are not supported")
		}
	}
	return &parser{toks: toks}, nil
}

// positioned attaches the current token's offset to err unless it already
// carries one.
func (p *parser) positioned(err error) error {
	var se *Error
	if errors.As(err, &se) {
		return err
	}
	return &Error{Pos: p.cur().pos, Msg: strings.TrimPrefix(err.Error(), "sql: ")}
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

// atParam reports whether the current token is a placeholder: ?, $N, or
// the lone $ of an unsupported dollar-quoted string.
func (p *parser) atParam() bool {
	t := p.cur()
	return t.kind == tokParam || t.kind == tokSymbol && (t.text == "?" || t.text == "$")
}

// param consumes the placeholder atParam found and returns its expr.Param
// index. ? numbers itself by appearance; $N is parameter N, so it may
// repeat, come out of order or leave gaps. A statement uses one style.
func (p *parser) param() (int, error) {
	t := p.cur()
	if t.text == "$" {
		return 0, errAt(t.pos, "dollar-quoted strings are not supported")
	}
	if p.style != 0 && p.style != t.text[0] {
		return 0, errAt(t.pos, "cannot mix ? and $N parameters in one statement")
	}
	p.style = t.text[0]
	p.pos++
	if t.text == "?" {
		p.nparams++
		return p.nparams - 1, nil
	}
	n, err := strconv.Atoi(t.text[1:])
	if err != nil || n < 1 || n > 65535 {
		return 0, errAt(t.pos, "bad parameter number %s", t.text)
	}
	p.nparams = max(p.nparams, n)
	return n - 1, nil
}

func (p *parser) acceptKw(kw string) bool {
	if p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return fmt.Errorf("sql: expected %s, got %q", strings.ToUpper(kw), p.cur().text)
	}
	return nil
}

func (p *parser) acceptSym(s string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return fmt.Errorf("sql: expected %q, got %q", s, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	if p.cur().kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier, got %q", p.cur().text)
	}
	t := p.cur().text
	p.pos++
	return t, nil
}

func (p *parser) selectStmt() (*selectStmt, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	st := &selectStmt{limit: -1}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.items = append(st.items, item)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	for {
		tr, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		st.tables = append(st.tables, tr)
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("where") {
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.where = e
	}
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.qualifiedIdent()
			if err != nil {
				return nil, err
			}
			st.groupBy = append(st.groupBy, c)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("having") {
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.having = e
	}
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.qualifiedIdent()
			if err != nil {
				return nil, err
			}
			it := orderItem{col: c}
			if p.acceptKw("desc") {
				it.desc = true
			} else {
				p.acceptKw("asc")
			}
			st.orderBy = append(st.orderBy, it)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("limit") {
		if p.cur().kind != tokNumber {
			return nil, fmt.Errorf("sql: LIMIT expects a number, got %q", p.cur().text)
		}
		n, err := strconv.Atoi(p.cur().text)
		if err != nil {
			return nil, err
		}
		p.pos++
		st.limit = n
	}
	return st, nil
}

var aggFns = map[string]bool{"sum": true, "count": true, "avg": true, "min": true, "max": true}

func (p *parser) selectItem() (selectItem, error) {
	if p.acceptSym("*") {
		return selectItem{star: true}, nil
	}
	// Aggregate function?
	if p.cur().kind == tokIdent && aggFns[strings.ToLower(p.cur().text)] &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
		fn := strings.ToLower(p.cur().text)
		p.pos += 2
		item := selectItem{agg: &aggItem{fn: fn}}
		if fn == "count" && p.acceptSym("*") {
			// count(*)
		} else {
			arg, err := p.addExpr()
			if err != nil {
				return selectItem{}, err
			}
			item.agg.arg = arg
		}
		if err := p.expectSym(")"); err != nil {
			return selectItem{}, err
		}
		item.as = p.alias()
		if item.as == "" {
			item.as = fn
		}
		return item, nil
	}
	e, err := p.addExpr()
	if err != nil {
		return selectItem{}, err
	}
	item := selectItem{ex: e}
	item.as = p.alias()
	if item.as == "" {
		if c, ok := e.(*expr.Col); ok {
			item.as = c.Name
		} else {
			item.as = fmt.Sprintf("col%d", p.pos)
		}
	}
	return item, nil
}

func (p *parser) alias() string {
	if p.acceptKw("as") {
		if p.cur().kind == tokIdent {
			a := p.cur().text
			p.pos++
			return a
		}
	}
	return ""
}

func (p *parser) tableRef() (tableRef, error) {
	name, err := p.ident()
	if err != nil {
		return tableRef{}, err
	}
	tr := tableRef{name: name}
	if p.acceptSym("(") {
		// Table function with literal arguments.
		for !p.acceptSym(")") {
			d, err := p.literal()
			if err != nil {
				return tableRef{}, err
			}
			tr.fnArgs = append(tr.fnArgs, d)
			if !p.acceptSym(",") {
				if err := p.expectSym(")"); err != nil {
					return tableRef{}, err
				}
				break
			}
		}
		if tr.fnArgs == nil {
			tr.fnArgs = []vector.Datum{}
		}
	}
	// Optional alias.
	if p.cur().kind == tokIdent && !isKeyword(p.cur().text) {
		tr.alias = p.cur().text
		p.pos++
	}
	return tr, nil
}

var keywords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "by": true,
	"having": true, "order": true, "limit": true, "and": true, "or": true,
	"not": true, "like": true, "in": true, "between": true, "as": true,
	"asc": true, "desc": true, "date": true, "case": true, "when": true,
	"then": true, "else": true, "end": true,
	"insert": true, "into": true, "values": true, "delete": true,
	"create": true, "table": true, "explain": true,
}

func isKeyword(s string) bool { return keywords[strings.ToLower(s)] }

func (p *parser) literal() (vector.Datum, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			return vector.NewFloat64Datum(f), err
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		return vector.NewInt64Datum(i), err
	case t.kind == tokString:
		p.pos++
		return vector.NewStringDatum(t.text), nil
	case p.acceptKw("date"):
		if p.cur().kind != tokString {
			return vector.Datum{}, fmt.Errorf("sql: DATE expects a string literal")
		}
		d, err := vector.ParseDate(p.cur().text)
		if err != nil {
			return vector.Datum{}, errAt(p.cur().pos, "%v", err)
		}
		p.pos++
		return vector.NewDateDatum(d), nil
	case p.acceptSym("-"):
		d, err := p.literal()
		if err != nil {
			return d, err
		}
		switch d.Typ {
		case vector.Int64:
			d.I64 = -d.I64
		case vector.Float64:
			d.F64 = -d.F64
		}
		return d, nil
	}
	return vector.Datum{}, fmt.Errorf("sql: expected literal, got %q", t.text)
}

// qualifiedIdent parses ident or alias.ident, returning the bare column name
// (the engine's column names are globally unique per query).
func (p *parser) qualifiedIdent() (string, error) {
	id, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.acceptSym(".") {
		col, err := p.ident()
		if err != nil {
			return "", err
		}
		return col, nil
	}
	return id, nil
}

// Expression grammar: or > and > not > comparison > additive >
// multiplicative > unary/primary.

func (p *parser) orExpr() (expr.Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	terms := []expr.Expr{left}
	for p.acceptKw("or") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	return expr.OrOf(terms...), nil
}

func (p *parser) andExpr() (expr.Expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	terms := []expr.Expr{left}
	for p.acceptKw("and") {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	return expr.AndOf(terms...), nil
}

func (p *parser) notExpr() (expr.Expr, error) {
	if p.acceptKw("not") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return expr.NotOf(e), nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (expr.Expr, error) {
	left, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	// LIKE / NOT LIKE / IN / BETWEEN.
	negate := false
	if p.acceptKw("not") {
		negate = true
	}
	switch {
	case p.acceptKw("like"):
		if p.cur().kind != tokString {
			return nil, fmt.Errorf("sql: LIKE expects a string pattern")
		}
		pat := p.cur().text
		p.pos++
		if negate {
			return expr.NotLikeOf(left, pat), nil
		}
		return expr.LikeOf(left, pat), nil
	case p.acceptKw("in"):
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var vals []vector.Datum
		for {
			d, err := p.literal()
			if err != nil {
				return nil, err
			}
			vals = append(vals, d)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		if negate {
			return expr.NotIn(left, vals...), nil
		}
		return expr.In(left, vals...), nil
	case p.acceptKw("between"):
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("and"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		b := expr.Between(left, lo, hi)
		if negate {
			return expr.NotOf(b), nil
		}
		return b, nil
	}
	if negate {
		return nil, fmt.Errorf("sql: NOT must be followed by LIKE, IN or BETWEEN here")
	}
	for _, op := range []struct {
		sym string
		f   func(l, r expr.Expr) expr.Expr
	}{
		{"<=", func(l, r expr.Expr) expr.Expr { return expr.Le(l, r) }},
		{">=", func(l, r expr.Expr) expr.Expr { return expr.Ge(l, r) }},
		{"<>", func(l, r expr.Expr) expr.Expr { return expr.Ne(l, r) }},
		{"!=", func(l, r expr.Expr) expr.Expr { return expr.Ne(l, r) }},
		{"=", func(l, r expr.Expr) expr.Expr { return expr.Eq(l, r) }},
		{"<", func(l, r expr.Expr) expr.Expr { return expr.Lt(l, r) }},
		{">", func(l, r expr.Expr) expr.Expr { return expr.Gt(l, r) }},
	} {
		if p.acceptSym(op.sym) {
			right, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return op.f(left, right), nil
		}
	}
	return left, nil
}

func (p *parser) addExpr() (expr.Expr, error) {
	left, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			left = expr.Add(left, r)
		case p.acceptSym("-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			left = expr.Sub(left, r)
		default:
			return left, nil
		}
	}
}

func (p *parser) mulExpr() (expr.Expr, error) {
	left, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("*"):
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			left = expr.Mul(left, r)
		case p.acceptSym("/"):
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			left = expr.Div(left, r)
		default:
			return left, nil
		}
	}
}

func (p *parser) primary() (expr.Expr, error) {
	t := p.cur()
	switch {
	case p.atParam():
		i, err := p.param()
		if err != nil {
			return nil, err
		}
		return expr.Par(i), nil
	case p.acceptSym("("):
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectSym(")")
	case t.kind == tokNumber, t.kind == tokString:
		d, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &expr.Lit{D: d}, nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "date"):
		d, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &expr.Lit{D: d}, nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "case"):
		return p.caseExpr()
	case t.kind == tokIdent:
		// Function call or column reference.
		name := t.text
		p.pos++
		if p.acceptSym("(") {
			arg, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			switch strings.ToLower(name) {
			case "year":
				return expr.YearOf(arg), nil
			case "month":
				return expr.MonthOf(arg), nil
			default:
				return nil, fmt.Errorf("sql: unknown function %q", name)
			}
		}
		if p.acceptSym(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return expr.C(col), nil
		}
		return expr.C(name), nil
	}
	return nil, fmt.Errorf("sql: unexpected token %q", t.text)
}

func (p *parser) caseExpr() (expr.Expr, error) {
	if err := p.expectKw("case"); err != nil {
		return nil, err
	}
	var whens []expr.WhenClause
	for p.acceptKw("when") {
		cond, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("then"); err != nil {
			return nil, err
		}
		then, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		whens = append(whens, expr.WhenClause{Cond: cond, Then: then})
	}
	if len(whens) == 0 {
		return nil, fmt.Errorf("sql: CASE without WHEN")
	}
	if err := p.expectKw("else"); err != nil {
		return nil, err
	}
	els, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	return &expr.Case{Whens: whens, Else: els}, nil
}
