// Command recycledb-shell is an interactive SQL shell over the recycling
// engine, loaded with a generated TPC-H database. It demonstrates recycling
// live: repeat a query (or a near-variant) and watch the recycler statistics
// line under each result. Results stream: rows print as the pipeline
// produces them, and Ctrl-C cancels the running statement (not the shell).
// DML works too — INSERT INTO ... VALUES, DELETE FROM ... [WHERE], CREATE
// TABLE — and prints affected-row counts; watch Invalidated/DeltaExtended
// move in \rstats as writes hit cached results.
//
// EXPLAIN <select> is a statement like any other: it prints, in full, the
// plan the next run of that SELECT executes, with per-node cost estimates
// and [cached] markers on subtrees the recycler can serve warm.
//
// Shell commands: \mode off|hist|spec|pa, \stats (toggle per-query stats),
// \rstats (recycler totals), \flush, \tables, \q.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"time"

	"recycledb"
	"recycledb/internal/tpch"
	"recycledb/internal/vector"
)

func main() {
	var (
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor to load")
		modeName = flag.String("mode", "spec", "recycling mode: off, hist, spec, pa")
		par      = flag.Int("parallelism", 0, "intra-query worker budget (0 = GOMAXPROCS, 1 = serial)")
	)
	flag.Parse()
	mode, err := recycledb.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "-mode:", err)
		os.Exit(2)
	}

	eng := recycledb.New(recycledb.Config{Mode: mode, Parallelism: *par})
	fmt.Printf("loading TPC-H sf=%g ...\n", *sf)
	tpch.Generate(eng.Catalog(), *sf, 1)
	fmt.Printf("tables: %s\n", strings.Join(eng.Catalog().TableNames(), ", "))
	fmt.Println(`type SQL (EXPLAIN <select> shows its plan), or \mode, \stats, \rstats, \flush, \tables, \q (Ctrl-C cancels the running statement)`)

	showStats := false
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("recycledb> ")
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == `\q`:
			return
		case line == `\stats`:
			showStats = !showStats
			fmt.Printf("per-query stats: %v\n", map[bool]string{true: "on", false: "off"}[showStats])
			continue
		case line == `\rstats`:
			fmt.Printf("%+v\n", eng.Recycler().Stats())
			continue
		case line == `\flush`:
			eng.FlushCache()
			fmt.Println("cache flushed")
			continue
		case line == `\tables`:
			fmt.Println(strings.Join(eng.Catalog().TableNames(), ", "))
			continue
		case strings.HasPrefix(line, `\mode`):
			var name string
			if parts := strings.Fields(line); len(parts) == 2 {
				name = parts[1]
			}
			if mode, err := recycledb.ParseMode(name); err != nil {
				fmt.Println("usage: \\mode off|hist|spec|pa")
			} else {
				eng.SetMode(mode)
				fmt.Println("mode:", eng.Mode())
			}
			continue
		}
		runStatement(eng, line, showStats)
	}
}

// runStatement prepares one statement and runs it: a query (SELECT or
// EXPLAIN) streams, anything else executes and reports its row count.
// SIGINT cancels the statement and returns control to the prompt instead
// of killing the shell.
func runStatement(eng *recycledb.Engine, line string, showStats bool) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	stmt, err := eng.Prepare(line)
	if err != nil {
		printErr(err)
		return
	}
	if !stmt.IsQuery() {
		start := time.Now()
		res, err := stmt.Exec(ctx)
		if err != nil {
			printErr(err)
			return
		}
		fmt.Printf("-- %d rows affected in %v\n", res.RowsAffected, time.Since(start).Round(10e3))
		if showStats {
			fmt.Printf("-- recycler: %+v\n", eng.Recycler().Stats())
		}
		return
	}

	rows, err := stmt.Query(ctx)
	if err != nil {
		printErr(err)
		return
	}
	max := 20 // rows a query prints; an EXPLAIN prints its whole plan
	if stmt.Verb() == "EXPLAIN" {
		max = math.MaxInt
	}
	names := make([]string, len(rows.Schema()))
	for i, c := range rows.Schema() {
		names[i] = c.Name
	}
	fmt.Println(strings.Join(names, " | "))
	printed, total := 0, 0
	for b, err := range rows.All(ctx) {
		if err != nil {
			printErr(err)
			return
		}
		total += b.Len()
		for i := 0; i < b.Len() && printed < max; i++ {
			cells := make([]string, b.Width())
			for c, v := range b.Row(i) {
				cells[c] = datumString(v)
			}
			fmt.Println(strings.Join(cells, " | "))
			printed++
		}
	}
	if total > max {
		fmt.Printf("... (%d more rows)\n", total-max)
	}
	s := rows.Stats()
	fmt.Printf("-- %d rows in %v (match %v, exec %v; reused=%d subsumed=%d stored=%d stalled=%d%s)\n",
		total, s.Total.Round(10e3), s.Matching.Round(10e3), s.Execution.Round(10e3),
		s.Reused, s.SubsumptionReused, s.Materialized, s.Waits,
		map[bool]string{true: ", proactive", false: ""}[s.ProactiveApplied])
	if showStats {
		fmt.Printf("-- %+v\n", s)
	}
}

func printErr(err error) {
	var pe *recycledb.ParseError
	switch {
	case errors.Is(err, recycledb.ErrCanceled):
		fmt.Println("canceled")
	case errors.As(err, &pe):
		fmt.Printf("syntax error at offset %d: %s\n", pe.Pos, pe.Msg)
	default:
		fmt.Println("error:", err)
	}
}

func datumString(d vector.Datum) string {
	switch d.Typ {
	case vector.Date:
		return vector.DateString(d.I64)
	case vector.Float64:
		return fmt.Sprintf("%.2f", d.F64)
	case vector.String:
		return d.Str
	default:
		return strings.Trim(d.String(), `"`)
	}
}
