// Command diveserver runs the edge analytics server of the live demo: it
// accepts DiVE sessions over TCP, decodes incoming bitstreams, runs the
// simulated DNN and streams detections back.
//
// Usage:
//
//	diveserver [-addr :7060] [-telemetry :7070] [-read-timeout 60s]
//	           [-write-timeout 10s] [-drain 5s]
//	diveserver -cluster 3 [-kill-after 30s] [-seed 1] [-telemetry :7070]
//
// -cluster runs N edge servers on loopback behind the health-routed balancer
// instead of one bare server: members are heartbeat-probed, their addresses
// are printed at startup (clients take the whole list as their failover
// candidates), and membership transitions are logged. -kill-after schedules
// the kill-a-server chaos drill: a seed-chosen member dies abruptly that long
// into the run, and its sessions must fail over to the survivors. With
// -telemetry, /debug/cluster serves the live membership table as JSON.
//
// The wire protocol is CRC-framed: corrupt or malformed uplink messages are
// rejected with a NACK demanding a keyframe instead of killing the session,
// and sessions may resume mid-clip after a client reconnect. On SIGINT or
// SIGTERM the server drains gracefully: it stops accepting sessions, lets
// in-flight frames finish for up to -drain, then exits.
//
// -telemetry serves the telemetry HTTP surface on the given address; GET /
// lists its endpoints. /metrics carries the per-session frame, byte and NACK
// counters, the decode and detect latency histograms, the SLO burn-rate
// gauges and the Go runtime gauges. The server writes no decision journal,
// so /debug/journal and /debug/frames stay empty: the agent serves them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dive/internal/chaos"
	"dive/internal/cluster"
	"dive/internal/edge"
	"dive/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "diveserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("diveserver", flag.ContinueOnError)
	addr := fs.String("addr", ":7060", "listen address")
	telemetry := fs.String("telemetry", "", "serve telemetry on this address (GET / lists the endpoints), e.g. :7070")
	readTimeout := fs.Duration("read-timeout", 60*time.Second, "per-message read deadline; an idle session past it is dropped")
	writeTimeout := fs.Duration("write-timeout", 10*time.Second, "per-result write deadline")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown grace for in-flight frames on SIGINT/SIGTERM")
	members := fs.Int("cluster", 0, "run this many members behind the health-routed balancer instead of one server")
	killAfter := fs.Duration("kill-after", 0, "with -cluster: kill a seed-chosen member after this long (chaos drill)")
	seed := fs.Int64("seed", 1, "seed for the -kill-after victim choice")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The drill's flags do nothing without a cluster: rejected by name.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"kill-after", "seed"} {
		if set[name] && *members <= 0 {
			return fmt.Errorf("-%s only applies with -cluster", name)
		}
	}
	if *members > 0 {
		return runCluster(*members, *killAfter, *seed, *telemetry, *readTimeout, *writeTimeout)
	}
	srv := edge.NewServer()
	srv.Logf = log.Printf
	srv.ReadTimeout = *readTimeout
	srv.WriteTimeout = *writeTimeout
	if *telemetry != "" {
		rec := obs.NewRecorder(0)
		srv.Obs = rec
		ln, err := net.Listen("tcp", *telemetry)
		if err != nil {
			return fmt.Errorf("telemetry listen: %w", err)
		}
		defer ln.Close()
		log.Printf("telemetry on http://%s/ (GET / lists the endpoints)", ln.Addr())
		go http.Serve(ln, rec.Handler())
		// Keep the Go runtime gauges on /metrics fresh without coupling
		// their collection to scrape handling.
		go func() {
			for range time.Tick(5 * time.Second) {
				rec.UpdateRuntimeGauges()
			}
		}()
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	log.Printf("edge server listening on %s", bound)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("%s: draining sessions (up to %s)...", sig, *drain)
		srv.Shutdown(*drain)
	}()

	return srv.Serve()
}

// runCluster runs N members behind the balancer until SIGINT/SIGTERM,
// optionally scheduling the seeded kill drill.
func runCluster(members int, killAfter time.Duration, seed int64, telemetry string, readTimeout, writeTimeout time.Duration) error {
	c, err := cluster.New(cluster.Config{
		Members: members,
		Configure: func(i int, srv *edge.Server) {
			srv.Logf = log.Printf
			srv.ReadTimeout = readTimeout
			srv.WriteTimeout = writeTimeout
		},
		Logf: log.Printf,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	for _, st := range c.Status() {
		log.Printf("cluster member %s listening on %s", st.Name, st.Addr)
	}

	if telemetry != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/cluster", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(c.Status())
		})
		ln, err := net.Listen("tcp", telemetry)
		if err != nil {
			return fmt.Errorf("telemetry listen: %w", err)
		}
		defer ln.Close()
		log.Printf("cluster telemetry on http://%s/debug/cluster", ln.Addr())
		go http.Serve(ln, mux)
	}

	if killAfter > 0 {
		victim := chaos.Victim(seed, members)
		log.Printf("chaos drill armed: member %d dies in %s", victim, killAfter)
		defer time.AfterFunc(killAfter, func() { c.Kill(victim) }).Stop()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	log.Printf("%s: stopping cluster", sig)
	return nil
}
