// Package skyserver is a synthetic stand-in for the SDSS SkyServer workload
// used in the paper's Fig. 6. The real experiment uses a 100 GB subset of
// Data Release 7 and 100 queries sampled from the live query log; neither is
// available here, so this package generates a sky catalog with the same
// workload-relevant properties: an expensive
// cone-search table function (fGetNearbyObjEq) shared verbatim by most
// queries, tiny final results (LIMIT 10), and a handful of query patterns.
package skyserver

import (
	"math"
	"math/rand"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// PhotoPrimarySchema is the subset of SkyServer's PhotoPrimary the workload
// touches.
var PhotoPrimarySchema = catalog.Schema{
	{Name: "objID", Typ: vector.Int64},
	{Name: "ra", Typ: vector.Float64},
	{Name: "dec", Typ: vector.Float64},
	{Name: "run", Typ: vector.Int64},
	{Name: "rerun", Typ: vector.Int64},
	{Name: "camcol", Typ: vector.Int64},
	{Name: "field", Typ: vector.Int64},
	{Name: "obj", Typ: vector.Int64},
	{Name: "type", Typ: vector.Int64},
	{Name: "u_mag", Typ: vector.Float64},
	{Name: "g_mag", Typ: vector.Float64},
	{Name: "r_mag", Typ: vector.Float64},
}

// NearbySchema is the output of fGetNearbyObjEq.
var NearbySchema = catalog.Schema{
	{Name: "nearby_objID", Typ: vector.Int64},
	{Name: "distance", Typ: vector.Float64},
}

// Load populates cat with a synthetic PhotoPrimary of n objects clustered
// around a few sky regions, and registers fGetNearbyObjEq.
func Load(cat *catalog.Catalog, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	t := catalog.NewTable("PhotoPrimary", PhotoPrimarySchema)
	w := t.BeginWrite()
	ap := w.Appender()
	// Cluster objects around a few centers (so cone searches return a
	// few rows, like the paper's fGetNearbyObjEq(195, 2.5, 0.5)).
	centers := [][2]float64{{195, 2.5}, {180, 0}, {210, 5}, {150, 30}}
	for i := 0; i < n; i++ {
		var ra, dec float64
		if rng.Intn(10) < 3 {
			c := centers[rng.Intn(len(centers))]
			ra = c[0] + rng.NormFloat64()*2
			dec = c[1] + rng.NormFloat64()*2
		} else {
			ra = rng.Float64() * 360
			dec = rng.Float64()*120 - 60
		}
		ap.Int64(0, int64(i+1))
		ap.Float64(1, ra)
		ap.Float64(2, dec)
		ap.Int64(3, int64(rng.Intn(800)))
		ap.Int64(4, int64(rng.Intn(50)))
		ap.Int64(5, int64(rng.Intn(6)+1))
		ap.Int64(6, int64(rng.Intn(1000)))
		ap.Int64(7, int64(rng.Intn(100000)))
		ap.Int64(8, int64(rng.Intn(7)))
		ap.Float64(9, 14+rng.Float64()*10)
		ap.Float64(10, 14+rng.Float64()*10)
		ap.Float64(11, 14+rng.Float64()*10)
		ap.FinishRow()
	}
	w.Commit()
	cat.AddTable(t)
	cat.AddFunc(&catalog.TableFunc{
		Name:   "fGetNearbyObjEq",
		Schema: NearbySchema,
		Tables: []string{"PhotoPrimary"},
		Invoke: nearbyObjEq,
	})
}

// nearbyObjEq is the cone search: all objects within r degrees of (ra, dec),
// by brute-force angular distance over the whole catalog (deliberately
// expensive; in SkyServer this dominates the workload's cost).
func nearbyObjEq(cat *catalog.Catalog, args []vector.Datum) (*catalog.Result, error) {
	t, err := cat.Table("PhotoPrimary")
	if err != nil {
		return nil, err
	}
	ra0 := args[0].F64 * math.Pi / 180
	dec0 := args[1].F64 * math.Pi / 180
	radius := args[2].F64 * math.Pi / 180
	res := &catalog.Result{Schema: NearbySchema}
	out := vector.NewBatch(NearbySchema.Types(), 64)
	snap := t.Snapshot()
	ras := snap.Col(1).F64
	decs := snap.Col(2).F64
	ids := snap.Col(0).I64
	for i := range ras {
		if snap.Deleted(i) {
			continue
		}
		ra := ras[i] * math.Pi / 180
		dec := decs[i] * math.Pi / 180
		// Spherical law of cosines.
		d := math.Acos(clamp(math.Sin(dec0)*math.Sin(dec) +
			math.Cos(dec0)*math.Cos(dec)*math.Cos(ra-ra0)))
		if d <= radius {
			out.Vecs[0].AppendInt64(ids[i])
			out.Vecs[1].AppendFloat64(d * 180 / math.Pi)
			if out.Len() == 1024 {
				//recycledb:clone-ok — out is freshly allocated, never pooled
				res.Batches = append(res.Batches, out)
				out = vector.NewBatch(NearbySchema.Types(), 64)
			}
		}
	}
	if out.Len() > 0 {
		//recycledb:clone-ok — out is freshly allocated, never pooled
		res.Batches = append(res.Batches, out)
	}
	return res, nil
}

func clamp(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}

// Query describes one workload query instance.
type Query struct {
	// Pattern identifies the template (for reporting).
	Pattern string
	Plan    *plan.Node
}

// coneJoin is the paper's dominant pattern: objects near a position joined
// back to PhotoPrimary, first 10 rows.
func coneJoin(ra, dec, r float64, cols []string, limit int) *plan.Node {
	fn := plan.NewTableFn("fGetNearbyObjEq",
		vector.NewFloat64Datum(ra), vector.NewFloat64Datum(dec), vector.NewFloat64Datum(r))
	j := plan.NewJoin(plan.Inner, fn,
		plan.NewScan("PhotoPrimary", cols...),
		[]string{"nearby_objID"}, []string{"objID"})
	return plan.NewLimit(j, limit)
}

// coneAgg aggregates magnitudes over a cone (a secondary pattern).
func coneAgg(ra, dec, r float64) *plan.Node {
	fn := plan.NewTableFn("fGetNearbyObjEq",
		vector.NewFloat64Datum(ra), vector.NewFloat64Datum(dec), vector.NewFloat64Datum(r))
	j := plan.NewJoin(plan.Inner, fn,
		plan.NewScan("PhotoPrimary", "objID", "type", "r_mag"),
		[]string{"nearby_objID"}, []string{"objID"})
	return plan.NewAggregate(j, []string{"type"},
		plan.A(plan.Count, nil, "n"),
		plan.A(plan.Avg, expr.C("r_mag"), "avg_r"))
}

// Workload generates the 100-query batch: like the paper's log sample, the
// queries are either the dominant pattern verbatim or share its
// fGetNearbyObjEq(195, 2.5, 0.5) call with varying projections and shapes,
// plus a few distinct cone positions.
func Workload(n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	wideCols := []string{"objID", "run", "rerun", "camcol", "field", "obj", "type"}
	narrowCols := []string{"objID", "ra", "dec", "r_mag"}
	var out []Query
	for i := 0; i < n; i++ {
		switch v := rng.Intn(10); {
		case v < 6: // dominant pattern, identical parameters
			out = append(out, Query{
				Pattern: "cone-join-dominant",
				Plan:    coneJoin(195, 2.5, 0.5, wideCols, 10),
			})
		case v < 8: // same function call, different projection/limit
			out = append(out, Query{
				Pattern: "cone-join-narrow",
				Plan:    coneJoin(195, 2.5, 0.5, narrowCols, 10+rng.Intn(3)*5),
			})
		case v < 9: // same function call, aggregation on top
			out = append(out, Query{
				Pattern: "cone-agg",
				Plan:    coneAgg(195, 2.5, 0.5),
			})
		default: // a different cone
			c := [][3]float64{{180, 0, 0.5}, {210, 5, 0.5}, {150, 30, 1.0}}[rng.Intn(3)]
			out = append(out, Query{
				Pattern: "cone-join-other",
				Plan:    coneJoin(c[0], c[1], c[2], wideCols, 10),
			})
		}
	}
	return out
}
