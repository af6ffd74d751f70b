// Command recycledb-shell is an interactive SQL shell over the recycling
// engine, loaded with a generated TPC-H database. It demonstrates recycling
// live: repeat a query (or a near-variant) and watch the recycler statistics
// line under each result. Results stream: rows print as the pipeline
// produces them, and Ctrl-C cancels the running statement (not the shell).
// DML works too — INSERT INTO ... VALUES, DELETE FROM ... [WHERE], CREATE
// TABLE — and prints affected-row counts; watch Invalidated/DeltaExtended
// move in \rstats as writes hit cached results.
//
// Shell commands: \mode off|hist|spec|pa, \stats (toggle per-query stats),
// \rstats (recycler totals), \flush, \tables, \q. EXPLAIN <query> prints the optimizer's chosen plan
// tree with per-node cost estimates and [cached] markers on subtrees the
// recycler can serve warm.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
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
	fmt.Println(`type SQL (EXPLAIN <query> shows the plan), or \mode, \stats, \rstats, \flush, \tables, \q (Ctrl-C cancels the running statement)`)

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
		if rest, ok := explainArg(line); ok {
			out, err := eng.Explain(rest)
			if err != nil {
				printErr(err)
			} else {
				fmt.Print(out)
			}
			continue
		}
		runStatement(eng, line, showStats)
	}
}

// explainArg strips a leading EXPLAIN keyword, returning the query to
// explain and whether the line was an EXPLAIN at all.
func explainArg(line string) (string, bool) {
	f := strings.Fields(line)
	if len(f) < 2 || !strings.EqualFold(f[0], "explain") {
		return "", false
	}
	return strings.TrimSpace(line[len(f[0]):]), true
}

// isDML sniffs the statement verb: INSERT / DELETE / CREATE run through
// Engine.Exec rather than the streaming query path.
func isDML(line string) bool {
	f := strings.Fields(line)
	if len(f) == 0 {
		return false
	}
	switch strings.ToLower(f[0]) {
	case "insert", "delete", "create":
		return true
	}
	return false
}

// runStatement streams one query (or executes one DML statement); SIGINT
// cancels the statement and returns control to the prompt instead of
// killing the shell.
func runStatement(eng *recycledb.Engine, line string, showStats bool) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if isDML(line) {
		start := time.Now()
		res, err := eng.Exec(ctx, line)
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

	rows, err := eng.Query(ctx, line)
	if err != nil {
		printErr(err)
		return
	}
	const max = 20
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
	switch {
	case errors.Is(err, recycledb.ErrCanceled):
		fmt.Println("canceled")
	case errors.Is(err, recycledb.ErrParse):
		var pe *recycledb.ParseError
		if errors.As(err, &pe) {
			fmt.Printf("syntax error at offset %d: %s\n", pe.Pos, pe.Msg)
			return
		}
		fmt.Println("error:", err)
	case errors.Is(err, recycledb.ErrUnknownTable):
		fmt.Println("error:", err)
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
