package sql

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/opt"
	"recycledb/internal/vector"
)

// identity is what the optimized-shape cache sees of a SELECT: its key
// (opt.ShapeKey of the bound plan) and the schema the plan resolves to.
type identity struct {
	key    string
	schema catalog.Schema
}

// identityOf compiles src against fuzzCatalog; ok is false unless src is a
// parameter-free SELECT whose plan resolves.
func identityOf(src string) (id identity, ok bool) {
	c, err := CompileStatement(src, fuzzCatalog)
	if err != nil || c.Kind != StmtSelect || c.NumParams() != 0 {
		return id, false
	}
	p, err := c.Query.Bind(nil)
	if err != nil {
		return id, false
	}
	id.key = opt.ShapeKey(p)
	if p.Resolve(fuzzCatalog) != nil {
		return id, false
	}
	return identity{key: id.key, schema: p.Schema()}, true
}

// lookalike is src with one token replaced; differ reports that the
// replacement changes what the statement computes or names, so its key must
// differ from src's.
type lookalike struct {
	src    string
	differ bool
}

// lookalikes returns src with each select alias renamed and each integral
// numeric literal retyped (5 <-> 5.0), one change per look-alike.
func lookalikes(src string) []lookalike {
	toks, err := lex(src)
	if err != nil {
		return nil
	}
	replace := func(t token, with string) string {
		return src[:t.pos] + " " + with + " " + src[t.pos+len(t.text):]
	}
	var out []lookalike
	for i, t := range toks {
		switch {
		case t.kind == tokIdent && i > 0 && strings.EqualFold(toks[i-1].text, "as") && toks[i-1].kind == tokIdent:
			out = append(out, lookalike{replace(t, t.text+"_r"), true})
		case t.kind == tokNumber && !strings.Contains(t.text, "."):
			out = append(out, lookalike{replace(t, t.text+".0"), true})
		case t.kind == tokNumber:
			if f, err := strconv.ParseFloat(t.text, 64); err == nil && f == math.Trunc(f) && f < 1e15 {
				out = append(out, lookalike{replace(t, strconv.FormatInt(int64(f), 10)), true})
			}
		}
	}
	// Whitespace only: the same statement, so the same key.
	out = append(out, lookalike{" " + src + "\n", false})
	return out
}

// adversarialArgs are bindings whose spellings could be confused: int and
// float twins, non-finite and extreme values, and strings that spell a
// placeholder or carry a quote.
var adversarialArgs = []vector.Datum{
	vector.NewInt64Datum(2), vector.NewFloat64Datum(2), vector.NewDateDatum(2), vector.NewStringDatum("2"),
	vector.NewFloat64Datum(math.NaN()), vector.NewFloat64Datum(math.Inf(1)), vector.NewFloat64Datum(math.Inf(-1)),
	vector.NewInt64Datum(math.MinInt64), vector.NewFloat64Datum(-0.0), vector.NewFloat64Datum(1e21),
	vector.NewStringDatum("?"), vector.NewStringDatum("?1"), vector.NewStringDatum(`"`),
	vector.NewStringDatum(`a"?2",`), vector.NewStringDatum(""), vector.NewBoolDatum(true),
}

// checkTemplateKey checks that c's template key equals opt.ShapeKey of the
// plan Bind returns, byte for byte, for bindings drawn from
// adversarialArgs, each parameter a different datum in every round.
func checkTemplateKey(t *testing.T, src string, c *Compiled) {
	t.Helper()
	n := c.Query.NumParams
	for round := range adversarialArgs {
		args := make([]vector.Datum, n)
		for i := range args {
			args[i] = adversarialArgs[(round+i*5)%len(adversarialArgs)]
		}
		got, err := c.Query.ShapeKey(args)
		if err != nil {
			t.Fatalf("%q: ShapeKey(%v): %v", src, args, err)
		}
		p, err := c.Query.Bind(args)
		if err != nil {
			t.Fatalf("%q: Bind(%v): %v", src, args, err)
		}
		if want := opt.ShapeKey(p); got != want {
			t.Fatalf("%q bound to %v:\n template key %s\n bound key    %s", src, args, got, want)
		}
	}
	if _, err := c.Query.ShapeKey(make([]vector.Datum, n+1)); err == nil {
		t.Fatalf("%q: ShapeKey accepts %d arguments for %d parameters", src, n+1, n)
	}
}

func TestTemplateKeyMatchesBoundKey(t *testing.T) {
	for _, src := range []string{
		`SELECT region FROM sales WHERE qty > $1 AND amount < $1 OR product = $1`,
		`SELECT region, qty + $2 AS q FROM sales WHERE amount < $1`,
		`SELECT region FROM sales WHERE $1 IN (1, 2, 3) AND qty NOT IN (4, 5)`,
		`SELECT CASE WHEN qty > ? THEN ? ELSE amount * ? END AS c FROM sales`,
		`SELECT region FROM sales WHERE ? LIKE 'a?%' AND region NOT LIKE '?1'`,
		`SELECT region, sum(qty * ?) AS s, max(amount + ?) AS m FROM sales GROUP BY region`,
		`SELECT region, count(*) AS n FROM sales WHERE day BETWEEN ? AND ? AND region = '?' GROUP BY region ORDER BY n DESC LIMIT 3`,
		`SELECT a FROM t, sales WHERE a = product AND s = ? AND qty > ?`,
		`EXPLAIN SELECT region FROM sales WHERE qty > $2 AND amount < $1`,
		`SELECT region FROM sales WHERE qty > 5`,
	} {
		c, err := CompileStatement(src, fuzzCatalog)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		checkTemplateKey(t, src, c)
	}
}

// FuzzPlanIdentity checks opt.ShapeKey, the key under which the engine
// replays an optimized plan, against what statements compute. For any
// SELECT the front end accepts: equal keys imply equal resolved schemas,
// names and types; renaming one alias changes the key; retyping one
// integral literal (5 <-> 5.0) changes the key. For a template with
// parameters, the key spliced from the template (Template.ShapeKey) equals
// the bound plan's under adversarial bindings.
func FuzzPlanIdentity(f *testing.F) {
	seeds := append([]string{
		`SELECT product AS a, qty AS b FROM sales ORDER BY a, b LIMIT 3`,
		`SELECT region, sum(qty * 2) AS s, count(*) AS c FROM sales GROUP BY region`,
		`SELECT product, qty * 2.0 AS x FROM sales ORDER BY product, x LIMIT 5`,
		`SELECT a FROM t WHERE b > 5 AND u IN (1, 2.0, 3) AND x = -7`,
		`SELECT region, sum(qty * $2) AS s FROM sales WHERE $1 IN (1, 2) AND region LIKE '?%' GROUP BY region`,
		`SELECT CASE WHEN qty > ? THEN '?1' ELSE ? END AS c FROM sales WHERE amount < ?`,
	}, fuzzSeeds...)
	seen := make(map[string]identity)
	for _, s := range seeds {
		f.Add(s)
		if id, ok := identityOf(s); ok {
			seen[id.key] = id
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if c, err := CompileStatement(src, fuzzCatalog); err == nil && c.Query != nil && c.Query.NumParams > 0 {
			checkTemplateKey(t, src, c)
		}
		base, ok := identityOf(src)
		if !ok {
			return
		}
		if s, ok := seen[base.key]; ok && !slices.Equal(s.schema, base.schema) {
			t.Fatalf("%q: key %s is a seed's, schema %v vs the seed's %v", src, base.key, base.schema, s.schema)
		}
		for _, l := range lookalikes(src) {
			id, ok := identityOf(l.src)
			switch {
			case !ok:
			case id.key == base.key && !slices.Equal(id.schema, base.schema):
				t.Fatalf("%q and %q share key %s, schemas %v and %v", src, l.src, id.key, base.schema, id.schema)
			case (id.key == base.key) == l.differ:
				t.Fatalf("%q and %q: keys %s and %s", src, l.src, base.key, id.key)
			}
		}
	})
}
