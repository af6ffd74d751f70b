// Command recycledb-server serves the recycling engine to real clients over
// the PostgreSQL wire protocol. Any libpq-compatible client connects with
// trust auth — psql, drivers, pgbench-style load generators:
//
//	recycledb-server -addr 127.0.0.1:5433 -sf 0.05 -mode spec
//	psql -h 127.0.0.1 -p 5433 -U anyone
//
// The server preloads a mixed TPC-H + SkyServer catalog (the paper's two
// workloads), so dashboards repeat Q1/Q3/Q6-shaped statements and cone
// searches immediately exercise recycling across connections. SET
// recycling_mode = 'off'|'hist'|'spec'|'pa' switches the recycler live; SET
// statement_timeout bounds statements per session.
//
// Operational knobs: -max-conns caps connections (beyond it clients get
// SQLSTATE 53300), -max-concurrent caps concurrently executing statements
// (admission control; queued statements wait FIFO without claiming engine
// workers), -statement-timeout sets the default per-statement deadline.
// SIGTERM / SIGINT begin a graceful drain: the listener closes, idle
// connections drop, in-flight statements get -drain-timeout to finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"recycledb"
	"recycledb/internal/catalog"
	"recycledb/internal/server"
	"recycledb/internal/skyserver"
	"recycledb/internal/tpch"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:5433", "listen address")
		modeName    = flag.String("mode", "spec", "recycling mode: off, hist, spec, pa")
		sf          = flag.Float64("sf", 0.05, "TPC-H scale factor to preload")
		objects     = flag.Int("objects", 20000, "SkyServer PhotoPrimary size to preload")
		seed        = flag.Int64("seed", 1, "data generation seed")
		par         = flag.Int("parallelism", 0, "intra-query worker budget (0 = GOMAXPROCS)")
		cacheMB     = flag.Int64("cache-mb", 0, "recycler cache budget in MiB (0 = default 256)")
		maxConns    = flag.Int("max-conns", 0, "connection cap (0 = unlimited)")
		maxConc     = flag.Int("max-concurrent", 0, "executing-statement cap (0 = 4x workers, -1 = unlimited)")
		stmtTimeout = flag.Duration("statement-timeout", 0, "default per-statement timeout (0 = none)")
		writeTO     = flag.Duration("write-timeout", 30*time.Second, "per-flush socket write bound (0 = none)")
		drainTO     = flag.Duration("drain-timeout", 5*time.Second, "grace for in-flight statements on shutdown")
	)
	flag.Parse()

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	mode, err := recycledb.ParseMode(*modeName)
	if err != nil {
		log.Fatalf("-mode: %v", err)
	}
	log.Printf("loading TPC-H sf=%g + SkyServer objects=%d ...", *sf, *objects)
	cat := catalog.New()
	tpch.Generate(cat, *sf, *seed)
	skyserver.Load(cat, *objects, *seed)
	eng := recycledb.NewWithCatalog(recycledb.Config{
		Mode:        mode,
		Parallelism: *par,
		CacheBytes:  *cacheMB << 20,
	}, cat)
	srv := server.New(eng, server.Config{
		MaxConns:         *maxConns,
		MaxConcurrent:    *maxConc,
		StatementTimeout: *stmtTimeout,
		WriteTimeout:     *writeTO,
		DrainTimeout:     *drainTO,
	})

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("serving pgwire on %s (mode=%s, workers=%d, max-concurrent=%d)",
		lis.Addr(), eng.Mode(), eng.Workers(), srv.MaxConcurrent())
	log.Printf("connect with: psql -h %s -p %s -U recycle", hostOf(lis.Addr().String()), portOf(lis.Addr().String()))

	err = srv.Serve(ctx, lis)
	st := srv.Stats()
	log.Printf("drained: %d conns served, %d stmts rejected by admission, %d errors sent (%v)",
		st.ConnsAccepted, st.AdmissionDrops, st.ErrorsSent, err)
}

func hostOf(addr string) string {
	if h, _, err := net.SplitHostPort(addr); err == nil {
		return h
	}
	return addr
}

func portOf(addr string) string {
	if _, p, err := net.SplitHostPort(addr); err == nil {
		return p
	}
	return fmt.Sprint(5432)
}
