// Command gosmr-replica runs one replica of a replicated key-value store
// over TCP. Start n=2f+1 of them with the same -peers list, then point
// gosmr-client (or any gosmr.Client) at their -client addresses.
//
// Example (three replicas on one host):
//
//	gosmr-replica -id 0 -peers :7000,:7001,:7002 -client :8000 &
//	gosmr-replica -id 1 -peers :7000,:7001,:7002 -client :8001 &
//	gosmr-replica -id 2 -peers :7000,:7001,:7002 -client :8002 &
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gosmr"
	"gosmr/internal/service"
)

func main() {
	var (
		id          = flag.Int("id", 0, "replica ID (index into -peers)")
		peers       = flag.String("peers", "", "comma-separated replica addresses, indexed by ID")
		clientAddr  = flag.String("client", "", "client-facing listen address")
		workers     = flag.Int("clientio", 0, "ClientIO worker pool size (0 = library default)")
		groups      = flag.Int("groups", 1, "parallel ordering (Paxos) groups; must match on every replica")
		window      = flag.Int("window", 0, "pipelining window WND per ordering group (0 = library default)")
		batchBytes  = flag.Int("batch", 0, "batch size cap BSZ in bytes (0 = library default)")
		snapEvery   = flag.Int("snapshot-every", 10000, "snapshot every N instances (0 = off)")
		snapChunk   = flag.Int("snapshot-chunk-bytes", 0, "size cap for snapshot chunk files and transfer frames (0 = default; must match on every replica)")
		execWorkers = flag.Int("executor-workers", 1, "parallel execution workers (KV declares per-key conflicts; 1 = sequential)")
		dataDir     = flag.String("data-dir", "", "directory for the write-ahead log and snapshots (empty = in-memory replica, no crash recovery)")
		syncPolicy  = flag.String("sync", "batch", "WAL fsync policy: batch (group commit), always, or none")
		clientPeers = flag.String("client-peers", "", "comma-separated client-facing addresses, indexed by ID (required for reconfigurable clusters)")
		epoch       = flag.Int64("epoch", 0, "topology epoch to boot into (0 = static cluster; a joiner passes the epoch from the committed topology)")
		baseView    = flag.Int64("base-view", 0, "first view of the boot epoch (from the committed topology; only with -epoch > 0)")
		stats       = flag.Duration("stats", 10*time.Second, "stats print interval (0 = off)")
	)
	flag.Parse()

	peerList := strings.Split(*peers, ",")
	if *peers == "" || *clientAddr == "" {
		fmt.Fprintln(os.Stderr, "usage: gosmr-replica -id N -peers a,b,c -client addr")
		os.Exit(2)
	}
	var clientPeerList []string
	if *clientPeers != "" {
		clientPeerList = strings.Split(*clientPeers, ",")
	}

	// A faulted replica (failed disk, or permanently removed from the
	// cluster) has already stopped participating; the daemon should exit
	// rather than linger printing stats for a dead replica.
	faulted := make(chan struct{})
	rep, err := gosmr.NewReplica(gosmr.Config{
		ID:               *id,
		Peers:            peerList,
		ClientAddr:       *clientAddr,
		PeerClientAddrs:  clientPeerList,
		TopologyEpoch:    *epoch,
		TopologyBaseView: *baseView,
		OnFaulted: func(reason string) {
			log.Printf("replica faulted: %s", reason)
			close(faulted)
		},
		ClientIOWorkers:    *workers,
		Groups:             *groups,
		Window:             *window,
		BatchBytes:         *batchBytes,
		SnapshotEvery:      *snapEvery,
		SnapshotChunkBytes: *snapChunk,
		DataDir:            *dataDir,
		SyncPolicy:         *syncPolicy,
		ExecutorWorkers:    *execWorkers,
	}, service.NewKV())
	if err != nil {
		log.Fatalf("configuring replica: %v", err)
	}
	if err := rep.Start(); err != nil {
		log.Fatalf("starting replica: %v", err)
	}
	log.Printf("replica %d up: epoch=%d peers=%v clients=%s", *id, rep.Epoch(), peerList, rep.ClientAddr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if *stats > 0 {
		ticker := time.NewTicker(*stats)
		defer ticker.Stop()
		var last uint64
		for {
			select {
			case <-ticker.C:
				cur := rep.Executed()
				log.Printf("leader=%d view=%d executed=%d (+%.0f/s) decided-batches=%d queues=%v",
					rep.Leader(), rep.View(), cur,
					float64(cur-last)/stats.Seconds(), rep.DecidedBatches(), rep.QueueStats())
				last = cur
			case <-stop:
				log.Printf("shutting down")
				rep.Stop()
				return
			case <-faulted:
				rep.Stop()
				return
			}
		}
	}
	select {
	case <-stop:
	case <-faulted:
	}
	rep.Stop()
}
