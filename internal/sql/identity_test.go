package sql

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/opt"
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

// FuzzPlanIdentity checks opt.ShapeKey, the key under which the engine
// replays an optimized plan, against what statements compute. For any
// SELECT the front end accepts: equal keys imply equal resolved schemas,
// names and types; renaming one alias changes the key; retyping one
// integral literal (5 <-> 5.0) changes the key.
func FuzzPlanIdentity(f *testing.F) {
	seeds := append([]string{
		`SELECT product AS a, qty AS b FROM sales ORDER BY a, b LIMIT 3`,
		`SELECT region, sum(qty * 2) AS s, count(*) AS c FROM sales GROUP BY region`,
		`SELECT product, qty * 2.0 AS x FROM sales ORDER BY product, x LIMIT 5`,
		`SELECT a FROM t WHERE b > 5 AND u IN (1, 2.0, 3) AND x = -7`,
	}, fuzzSeeds...)
	seen := make(map[string]identity)
	for _, s := range seeds {
		f.Add(s)
		if id, ok := identityOf(s); ok {
			seen[id.key] = id
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
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
