package sql

import (
	"fmt"
	"strings"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/vector"
)

// DML front end: INSERT INTO ... VALUES, DELETE FROM ... WHERE, and CREATE
// TABLE, alongside the SELECT block of parser.go. Statements flow through
// the same lexer, error positioning, parameter machinery, and Normalize
// keying as queries, so prepared DML works exactly like prepared SELECTs.

// StmtKind discriminates compiled statements.
type StmtKind int

// Statement kinds.
const (
	StmtSelect StmtKind = iota
	StmtInsert
	StmtDelete
	StmtCreate
	StmtExplain
)

// String returns the kind's SQL verb.
func (k StmtKind) String() string {
	return [...]string{"SELECT", "INSERT", "DELETE", "CREATE", "EXPLAIN"}[k]
}

// insVal is one VALUES cell: a literal datum or a placeholder.
type insVal struct {
	d     vector.Datum
	param int // >= 0: placeholder index; -1: literal
}

// insertStmt is a parsed INSERT INTO ... VALUES.
type insertStmt struct {
	table   string
	cols    []string // nil = schema order
	rows    [][]insVal
	nparams int
}

// deleteStmt is a parsed DELETE FROM ... [WHERE].
type deleteStmt struct {
	table   string
	where   expr.Expr // nil = all rows
	nparams int
}

// createStmt is a parsed CREATE TABLE.
type createStmt struct {
	table  string
	schema catalog.Schema
}

// Compiled is a compiled statement of any kind, the unit the engine's plan
// cache stores. SELECTs and EXPLAINs carry the SELECT's plan template; DML
// carries a validated parameterized form bound per execution.
type Compiled struct {
	Kind StmtKind
	// Query is the SELECT template (StmtSelect, or the SELECT an
	// StmtExplain explains); nil for DML.
	Query *Template
	ins   *insertStmt
	del   *deleteStmt
	crt   *createStmt
}

// NumParams returns the number of parameters a binding supplies: the
// count of ? placeholders, or the largest N of the $N ones.
func (c *Compiled) NumParams() int {
	switch {
	case c.Query != nil:
		return c.Query.NumParams
	case c.Kind == StmtInsert:
		return c.ins.nparams
	case c.Kind == StmtDelete:
		return c.del.nparams
	}
	return 0
}

// CompileStatement parses src as any supported statement and compiles it
// against cat. SELECTs come back as plan templates, and EXPLAIN <select>
// as the SELECT's template, so it binds the same parameters; DML is
// validated (tables, columns, arities, literal types) so Bind can only fail
// on parameter issues.
func CompileStatement(src string, cat *catalog.Catalog) (*Compiled, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	kind := StmtSelect
	switch p.verb() {
	case "insert":
		st, err := p.insertStmt()
		if err := p.end(err); err != nil {
			return nil, err
		}
		st.nparams = p.nparams
		if err := validateInsert(st, cat); err != nil {
			return nil, err
		}
		return &Compiled{Kind: StmtInsert, ins: st}, nil
	case "delete":
		st, err := p.deleteStmt()
		if err := p.end(err); err != nil {
			return nil, err
		}
		st.nparams = p.nparams
		if err := validateDelete(st, cat); err != nil {
			return nil, err
		}
		return &Compiled{Kind: StmtDelete, del: st}, nil
	case "create":
		st, err := p.createStmt()
		if err := p.end(err); err != nil {
			return nil, err
		}
		return &Compiled{Kind: StmtCreate, crt: st}, nil
	case "explain":
		kind = StmtExplain
		p.pos++
		if t := p.cur(); p.acceptKw("analyze") {
			return nil, errAt(t.pos, "EXPLAIN ANALYZE is not supported")
		}
		if v := p.verb(); v == "insert" || v == "delete" || v == "create" {
			return nil, errAt(p.cur().pos, "EXPLAIN of %s is not supported", strings.ToUpper(v))
		}
	}
	t, err := p.template(cat)
	if err != nil {
		return nil, err
	}
	return &Compiled{Kind: kind, Query: t}, nil
}

// verb returns the current token lower-cased if it is a word, else "".
func (p *parser) verb() string {
	if p.cur().kind != tokIdent {
		return ""
	}
	return strings.ToLower(p.cur().text)
}

// end closes a statement production: its error gets the current offset,
// and without one the text must end there.
func (p *parser) end(err error) error {
	if err != nil {
		return p.positioned(err)
	}
	return p.finish()
}

// finish consumes an optional terminator and rejects trailing input.
func (p *parser) finish() error {
	p.acceptSym(";")
	if !p.atEOF() {
		return errAt(p.cur().pos, "trailing input at %q", p.cur().text)
	}
	return nil
}

// insertStmt parses INSERT INTO name [(cols)] VALUES (...), (...).
func (p *parser) insertStmt() (*insertStmt, error) {
	if err := p.expectKw("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &insertStmt{table: name}
	if p.acceptSym("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.cols = append(st.cols, c)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []insVal
		for {
			v, err := p.insVal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		st.rows = append(st.rows, row)
		if !p.acceptSym(",") {
			break
		}
	}
	return st, nil
}

// insVal parses one VALUES cell: a placeholder or a (possibly signed /
// DATE) literal.
func (p *parser) insVal() (insVal, error) {
	if p.atParam() {
		idx, err := p.param()
		return insVal{param: idx}, err
	}
	if p.cur().kind == tokIdent {
		switch strings.ToLower(p.cur().text) {
		case "true":
			p.pos++
			return insVal{d: vector.NewBoolDatum(true), param: -1}, nil
		case "false":
			p.pos++
			return insVal{d: vector.NewBoolDatum(false), param: -1}, nil
		}
	}
	d, err := p.literal()
	if err != nil {
		return insVal{}, err
	}
	return insVal{d: d, param: -1}, nil
}

// deleteStmt parses DELETE FROM name [WHERE pred].
func (p *parser) deleteStmt() (*deleteStmt, error) {
	if err := p.expectKw("delete"); err != nil {
		return nil, err
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &deleteStmt{table: name}
	if p.acceptKw("where") {
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.where = e
	}
	return st, nil
}

// sqlTypes maps CREATE TABLE type names to vector types.
var sqlTypes = map[string]vector.Type{
	"int": vector.Int64, "integer": vector.Int64, "bigint": vector.Int64,
	"float": vector.Float64, "double": vector.Float64, "real": vector.Float64,
	"text": vector.String, "string": vector.String, "varchar": vector.String,
	"bool": vector.Bool, "boolean": vector.Bool,
	"date": vector.Date,
}

// createStmt parses CREATE TABLE name (col type, ...).
func (p *parser) createStmt() (*createStmt, error) {
	if err := p.expectKw("create"); err != nil {
		return nil, err
	}
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	st := &createStmt{table: name}
	seen := make(map[string]bool)
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokIdent {
			return nil, fmt.Errorf("sql: column %s needs a type, got %q", col, p.cur().text)
		}
		typ, ok := sqlTypes[strings.ToLower(p.cur().text)]
		if !ok {
			return nil, fmt.Errorf("sql: unknown type %q", p.cur().text)
		}
		p.pos++
		// Swallow an optional length, e.g. VARCHAR(32).
		if p.acceptSym("(") {
			if p.cur().kind != tokNumber {
				return nil, fmt.Errorf("sql: type length expects a number, got %q", p.cur().text)
			}
			p.pos++
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
		}
		if seen[col] {
			return nil, fmt.Errorf("sql: duplicate column %q", col)
		}
		seen[col] = true
		st.schema = append(st.schema, catalog.Column{Name: col, Typ: typ})
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if len(st.schema) == 0 {
		return nil, fmt.Errorf("sql: CREATE TABLE needs at least one column")
	}
	return st, nil
}

// validateInsert resolves the target table and checks the column list and
// every literal's type against the schema, so Bind failures are parameter
// mistakes only.
func validateInsert(st *insertStmt, cat *catalog.Catalog) error {
	t, err := cat.Table(st.table)
	if err != nil {
		return err
	}
	width := len(t.Schema)
	if st.cols != nil {
		width = len(st.cols)
		seen := make(map[string]bool)
		for _, c := range st.cols {
			if t.Schema.ColIndex(c) < 0 {
				return fmt.Errorf("sql: table %s has no column %q", st.table, c)
			}
			if seen[c] {
				return fmt.Errorf("sql: duplicate insert column %q", c)
			}
			seen[c] = true
		}
		if len(st.cols) != len(t.Schema) {
			return fmt.Errorf("sql: INSERT must list all %d columns of %s (no NULLs in this engine), got %d",
				len(t.Schema), st.table, len(st.cols))
		}
	}
	for ri, row := range st.rows {
		if len(row) != width {
			return fmt.Errorf("sql: INSERT row %d has %d values, want %d", ri+1, len(row), width)
		}
		for ci, v := range row {
			if v.param >= 0 {
				continue
			}
			want := t.Schema[ci].Typ
			if st.cols != nil {
				want = t.Schema[t.Schema.ColIndex(st.cols[ci])].Typ
			}
			if _, err := coerceDatum(v.d, want); err != nil {
				return fmt.Errorf("sql: INSERT row %d column %d: %w", ri+1, ci+1, err)
			}
		}
	}
	return nil
}

// validateDelete resolves the target table and type-checks the predicate.
func validateDelete(st *deleteStmt, cat *catalog.Catalog) error {
	t, err := cat.Table(st.table)
	if err != nil {
		return err
	}
	if st.where == nil {
		return nil
	}
	if st.nparams > 0 {
		return nil // binds per execution; type-checks there
	}
	typ, err := st.where.Clone().Bind(t.Schema)
	if err != nil {
		return err
	}
	if typ != vector.Bool {
		return fmt.Errorf("sql: DELETE predicate has type %v, want bool", typ)
	}
	return nil
}

// coerceDatum converts d to the column type want, allowing the engine's
// implicit numeric widenings (int → float, int → date).
func coerceDatum(d vector.Datum, want vector.Type) (vector.Datum, error) {
	if d.Typ == want {
		return d, nil
	}
	if d.Typ == vector.Int64 {
		switch want {
		case vector.Date:
			return vector.Datum{Typ: vector.Date, I64: d.I64}, nil
		case vector.Float64:
			return vector.NewFloat64Datum(float64(d.I64)), nil
		}
	}
	return d, fmt.Errorf("value of type %v does not fit column type %v", d.Typ, want)
}

// BindInsert substitutes args into the statement's placeholders and returns
// the target table name and the fully coerced rows to append.
func (c *Compiled) BindInsert(cat *catalog.Catalog, args []vector.Datum) (string, [][]vector.Datum, error) {
	st := c.ins
	if len(args) != st.nparams {
		return "", nil, fmt.Errorf("sql: statement wants %d parameters, got %d", st.nparams, len(args))
	}
	t, err := cat.Table(st.table)
	if err != nil {
		return "", nil, err
	}
	colIdx := make([]int, 0, len(t.Schema))
	if st.cols == nil {
		for i := range t.Schema {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, cname := range st.cols {
			j := t.Schema.ColIndex(cname)
			if j < 0 {
				return "", nil, fmt.Errorf("sql: table %s has no column %q", st.table, cname)
			}
			colIdx = append(colIdx, j)
		}
	}
	rows := make([][]vector.Datum, len(st.rows))
	for ri, row := range st.rows {
		out := make([]vector.Datum, len(t.Schema))
		if len(row) != len(colIdx) {
			return "", nil, fmt.Errorf("sql: INSERT row %d has %d values, want %d", ri+1, len(row), len(colIdx))
		}
		for ci, v := range row {
			d := v.d
			if v.param >= 0 {
				d = args[v.param]
			}
			j := colIdx[ci]
			cd, err := coerceDatum(d, t.Schema[j].Typ)
			if err != nil {
				return "", nil, fmt.Errorf("sql: INSERT row %d column %s: %w", ri+1, t.Schema[j].Name, err)
			}
			out[j] = cd
		}
		rows[ri] = out
	}
	return st.table, rows, nil
}

// BindDelete substitutes args into the predicate and returns the target
// table name and a private predicate clone (nil = delete all rows).
func (c *Compiled) BindDelete(args []vector.Datum) (string, expr.Expr, error) {
	st := c.del
	if len(args) != st.nparams {
		return "", nil, fmt.Errorf("sql: statement wants %d parameters, got %d", st.nparams, len(args))
	}
	if st.where == nil {
		return st.table, nil, nil
	}
	pred, err := expr.RewriteLeaves(st.where.Clone(), func(e expr.Expr) (expr.Expr, error) {
		p, ok := e.(*expr.Param)
		if !ok {
			return e, nil
		}
		if p.Idx < 0 || p.Idx >= len(args) {
			return nil, fmt.Errorf("sql: parameter ?%d has no binding", p.Idx+1)
		}
		return &expr.Lit{D: args[p.Idx]}, nil
	})
	if err != nil {
		return "", nil, err
	}
	return st.table, pred, nil
}

// CreateTable returns the parsed CREATE TABLE name and schema.
func (c *Compiled) CreateTable() (string, catalog.Schema) {
	return c.crt.table, append(catalog.Schema(nil), c.crt.schema...)
}
