package gosmr_test

// True kill -9 crash-restart test: replicas run as real OS processes over
// TCP and die by SIGKILL, so nothing — not the WAL's pending buffer, not a
// graceful Close's final drain — survives except what the group-commit
// Syncer already fsynced. This is the test the in-process restart suite
// cannot be (an in-process "kill" is a graceful Stop, which drains the WAL
// and would mask a broken durability gate).
//
// The sharp assertion is quorum membership: after replica 2 is SIGKILLed
// and restarted from its DataDir, replica 1 is SIGKILLed too, leaving a
// majority only if the restarted replica is a functioning acceptor with its
// durable promises intact. Committing through that quorum proves recovery,
// not just catch-up. A final full-cluster SIGKILL + restart proves every
// acknowledged command is on disk.

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gosmr"
	"gosmr/internal/service"
	"gosmr/internal/transport"
)

// freePorts reserves n distinct TCP ports and releases them for the
// subprocesses to bind. The close-then-bind race is acceptable in a test.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range listeners {
		l.Close()
	}
	return addrs
}

// replicaProc manages one gosmr-replica subprocess.
type replicaProc struct {
	t    *testing.T
	bin  string
	args []string
	env  []string // extra environment (e.g. an armed GOSMR_CRASHPOINT)
	log  *os.File
	cmd  *exec.Cmd
}

func (p *replicaProc) start() {
	p.t.Helper()
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout, cmd.Stderr = p.log, p.log
	if len(p.env) > 0 {
		cmd.Env = append(os.Environ(), p.env...)
	}
	if err := cmd.Start(); err != nil {
		p.t.Fatal(err)
	}
	p.cmd = cmd
}

// kill9 SIGKILLs the process: no signal handler, no deferred Stop, no WAL
// drain.
func (p *replicaProc) kill9() {
	p.t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		p.t.Fatal(err)
	}
	_ = p.cmd.Wait()
	p.cmd = nil
}

// waitExit waits for the process to exit on its own and returns its exit
// code (-1 on timeout).
func (p *replicaProc) waitExit(timeout time.Duration) int {
	p.t.Helper()
	done := make(chan int, 1)
	go func() {
		_ = p.cmd.Wait()
		done <- p.cmd.ProcessState.ExitCode()
	}()
	select {
	case code := <-done:
		p.cmd = nil
		return code
	case <-time.After(timeout):
		return -1
	}
}

// buildReplicaBin compiles cmd/gosmr-replica into a temp dir.
func buildReplicaBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gosmr-replica")
	build := exec.Command("go", "build", "-o", bin, "./cmd/gosmr-replica")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building replica: %v\n%s", err, out)
	}
	return bin
}

func TestKillNineProcessRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real replica subprocesses; skipped in -short")
	}
	bin := buildReplicaBin(t)

	addrs := freePorts(t, 6)
	peerAddrs := addrs[0] + "," + addrs[1] + "," + addrs[2]
	clientAddrs := addrs[3:6]
	procs := make([]*replicaProc, 3)
	for i := range 3 {
		logf, err := os.Create(filepath.Join(t.TempDir(), fmt.Sprintf("r%d.log", i)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { logf.Close() })
		procs[i] = &replicaProc{
			t: t, bin: bin, log: logf,
			args: []string{
				"-id", fmt.Sprint(i),
				"-peers", peerAddrs,
				"-client", clientAddrs[i],
				"-data-dir", t.TempDir(),
				"-sync", "batch",
				"-snapshot-every", "40",
				"-groups", "2",
				"-executor-workers", "2",
				"-stats", "0",
			},
		}
		procs[i].start()
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p.cmd != nil {
				_ = p.cmd.Process.Kill()
				_ = p.cmd.Wait()
			}
		}
	})

	dial := func() *gosmr.Client {
		t.Helper()
		cli, err := gosmr.Dial(gosmr.ClientConfig{Addrs: clientAddrs, Timeout: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return cli
	}
	put := func(cli *gosmr.Client, key string) {
		t.Helper()
		reply, err := cli.Execute(service.EncodePut(key, []byte("v-"+key)))
		if err != nil {
			t.Fatalf("PUT %s: %v", key, err)
		}
		if st, _ := service.DecodeReply(reply); st != service.KVOK {
			t.Fatalf("PUT %s status %d", key, st)
		}
	}
	get := func(cli *gosmr.Client, key string) {
		t.Helper()
		reply, err := cli.Execute(service.EncodeGet(key))
		if err != nil {
			t.Fatalf("GET %s: %v", key, err)
		}
		st, val := service.DecodeReply(reply)
		if st != service.KVOK || string(val) != "v-"+key {
			t.Fatalf("GET %s = status %d value %q, want v-%s", key, st, val, key)
		}
	}

	cli := dial()
	defer cli.Close()
	for i := range 30 {
		put(cli, fmt.Sprintf("pre-%d", i))
	}

	// SIGKILL follower 2 mid-run; the majority keeps committing.
	procs[2].kill9()
	for i := range 15 {
		put(cli, fmt.Sprintf("mid-%d", i))
	}

	// Restart replica 2 from its data dir, then SIGKILL the LEADER: the
	// remaining quorum is {1, 2} — commits now require the restarted
	// replica to be a working acceptor AND force a view change, so the
	// snapshot checkpoints that follow record promises from a view > 0
	// (recovering those promises is exactly what WAL checkpointing must
	// not lose).
	procs[2].start()
	time.Sleep(300 * time.Millisecond) // let it bind and start catch-up
	procs[0].kill9()
	for i := range 10 {
		put(cli, fmt.Sprintf("post-%d", i))
	}
	get(cli, "pre-0")
	cli.Close()

	// Full-cluster SIGKILL (replica 0 is already down): every acknowledged
	// command — and every promise, across the elected view — must come
	// back from the data directories alone.
	procs[1].kill9()
	procs[2].kill9()
	for _, p := range procs {
		p.start()
	}
	cli2 := dial()
	defer cli2.Close()
	for _, key := range []string{"pre-0", "pre-29", "mid-0", "mid-14", "post-0", "post-9"} {
		get(cli2, key)
	}
	put(cli2, "after-restart") // and the cluster still makes progress
	get(cli2, "after-restart")
}

// TestKillInsideSnapshotInstallRestartRecovers closes the transferred-
// snapshot cut window: a lagging replica is crashed INSIDE the install of a
// snapshot it received via state transfer, at three deterministic points
// armed through GOSMR_CRASHPOINT, in pipeline order —
//
//   - "transfer-chunk": mid-pull, right after the first fetched chunk was
//     fsynced into its generation directory; no manifest references it.
//     Reboot must resume the pull (skipping the staged chunks that match
//     the manifest) or restart it — never install from a torn chain. The
//     pull stages chunks in place, so the install writes no chunks of its
//     own: a kill mid-persist would leave this same disk state (generation
//     directories half written, the old manifest still the newest intact
//     one), and this point covers both.
//   - "transfer-install": every chunk is staged and fsynced but the
//     manifest is not committed. Before persist-before-cut, the
//     ordering groups had already journaled their log cuts by this moment
//     (the catch-up handler fast-forwarded immediately), so a crash here
//     left WAL cuts with no covering snapshot and reboot refused the
//     DataDir ("clear ... to rejoin via state transfer").
//   - "transfer-persisted": the snapshot is durably on disk (manifest
//     renamed), the cuts are not journaled yet. Reboot must come up from
//     the new snapshot with the old WAL suffix covered idempotently.
//
// The test runs with a small -snapshot-chunk-bytes so the transfer is a
// genuinely multi-chunk stream — the chunk crash point then proves a kill
// -9 at a chunk boundary (not just between whole snapshots) reboots
// cleanly.
//
// After each crash the replica must reboot from its DataDir — no refusal —
// and after the final (uncrashed) restart it must be a functioning acceptor:
// the test SIGKILLs the other follower and commits through a quorum that
// includes the recovered replica.
func TestKillInsideSnapshotInstallRestartRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real replica subprocesses; skipped in -short")
	}
	bin := buildReplicaBin(t)
	for _, groups := range []int{1, 2} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			addrs := freePorts(t, 6)
			peerAddrs := strings.Join(addrs[:3], ",")
			clientAddrs := addrs[3:6]
			procs := make([]*replicaProc, 3)
			for i := range 3 {
				logf, err := os.Create(filepath.Join(t.TempDir(), fmt.Sprintf("r%d.log", i)))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { logf.Close() })
				procs[i] = &replicaProc{
					t: t, bin: bin, log: logf,
					args: []string{
						"-id", fmt.Sprint(i),
						"-peers", peerAddrs,
						"-client", clientAddrs[i],
						"-data-dir", t.TempDir(),
						"-sync", "batch",
						"-snapshot-every", "8",
						"-snapshot-chunk-bytes", "4096",
						"-groups", fmt.Sprint(groups),
						"-stats", "0",
					},
				}
				procs[i].start()
			}
			t.Cleanup(func() {
				for _, p := range procs {
					if p.cmd != nil {
						_ = p.cmd.Process.Kill()
						_ = p.cmd.Wait()
					}
				}
			})

			cli, err := gosmr.Dial(gosmr.ClientConfig{Addrs: clientAddrs[:2], Timeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			put := func(key string) {
				t.Helper()
				reply, err := cli.Execute(service.EncodePut(key, []byte("v-"+key)))
				if err != nil {
					t.Fatalf("PUT %s: %v", key, err)
				}
				if st, _ := service.DecodeReply(reply); st != service.KVOK {
					t.Fatalf("PUT %s status %d", key, st)
				}
			}

			for i := range 10 {
				put(fmt.Sprintf("pre-%d", i))
			}

			// SIGKILL follower 2, then push the survivors far ahead. The
			// count matters: while a peer is down its SendQueue buffers up
			// to 1024 messages and REPLAYS them on reconnect, so a small gap
			// is refilled from that backlog without any catch-up at all.
			// Committing >1200 instances (sequential client: one instance,
			// one Propose each) overflows the queue, and the victim's real
			// gap then reaches below both the survivors' in-memory logs and
			// their WALs' one-generation retention — rejoining requires a
			// full snapshot transfer.
			procs[2].kill9()
			for i := range 1200 {
				put(fmt.Sprintf("mid-%d", i))
			}

			// Crash inside the install window, at each armed point in turn
			// (pipeline order: chunk staged, all staged, manifest
			// committed). Each run must die via the crash
			// point (exit code 137), proving the snapshot transfer actually
			// reached that stage.
			for _, point := range []string{"transfer-chunk", "transfer-install", "transfer-persisted"} {
				procs[2].env = []string{"GOSMR_CRASHPOINT=" + point}
				procs[2].start()
				if code := procs[2].waitExit(90 * time.Second); code != 137 {
					if out, err := os.ReadFile(procs[2].log.Name()); err == nil {
						t.Logf("victim log:\n%s", out)
					}
					t.Fatalf("crash point %s: replica exited with %d, want 137 (never reached the install?)", point, code)
				}
			}

			// Final restart, crash point disarmed: the replica must boot
			// from its DataDir — a "clear the data dir" refusal exits
			// immediately — and finish the interrupted state transfer.
			procs[2].env = nil
			procs[2].start()
			time.Sleep(2 * time.Second)
			if err := procs[2].cmd.Process.Signal(syscall.Signal(0)); err != nil {
				t.Fatalf("restarted replica is not running (boot refused its DataDir?): %v", err)
			}

			// The sharp assertion: SIGKILL the other follower. Committing now
			// requires a quorum of {leader, recovered replica} — the replica
			// that crashed twice mid-install must be a working acceptor.
			procs[1].kill9()
			for i := range 5 {
				put(fmt.Sprintf("post-%d", i))
			}
			reply, err := cli.Execute(service.EncodeGet("pre-0"))
			if err != nil {
				t.Fatal(err)
			}
			if st, val := service.DecodeReply(reply); st != service.KVOK || string(val) != "v-pre-0" {
				t.Fatalf("GET pre-0 = status %d value %q", st, val)
			}
		})
	}
}

// TestKillAtProposeSentRestartRecovers kill -9s the LEADER at the
// "propose-sent" crash point: a Propose is on its SendQueue and the accept
// record behind it is still in the WAL's buffer, which no fsync will ever
// cover. Under group commit that window is open on every proposal — the
// leader's own vote is what waits for its disk, not the Propose — so the
// restart must cope with followers that durably hold a value the leader's
// log has lost: the ex-leader comes back in its recovered view but never
// leads it again, the cluster converges on byte-identical state with every
// acknowledged write present, and the ex-leader ends in a view above the one
// it crashed in.
func TestKillAtProposeSentRestartRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real replica subprocesses; skipped in -short")
	}
	const groups = 2
	bin := buildReplicaBin(t)
	addrs := freePorts(t, 6)
	clientAddrs := addrs[3:6]
	procs := make([]*replicaProc, 3)
	dirs := make([]string, 3)
	for i := range 3 {
		logf, err := os.Create(filepath.Join(t.TempDir(), fmt.Sprintf("r%d.log", i)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { logf.Close() })
		dirs[i] = t.TempDir()
		procs[i] = &replicaProc{
			t: t, bin: bin, log: logf,
			args: []string{
				"-id", fmt.Sprint(i),
				"-peers", strings.Join(addrs[:3], ","),
				"-client", clientAddrs[i],
				"-data-dir", dirs[i],
				"-sync", "batch",
				"-snapshot-every", "40",
				"-groups", fmt.Sprint(groups),
				"-stats", "50ms",
			},
		}
		procs[i].start()
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p.cmd != nil {
				_ = p.cmd.Process.Kill()
				_ = p.cmd.Wait()
			}
		}
	})
	// lastView returns the view of the newest stats line replica i printed
	// after its log was `since` bytes long — of those naming `leader` as the
	// leader, unless leader < 0 — or -1 if there is none.
	lastView := func(i int, since int64, leader int) int {
		out, err := os.ReadFile(procs[i].log.Name())
		if err != nil {
			t.Fatal(err)
		}
		view := -1
		for _, line := range strings.Split(string(out[since:]), "\n") {
			if _, rest, ok := strings.Cut(line, " leader="); ok {
				var l, v int
				if n, _ := fmt.Sscanf(rest, "%d view=%d", &l, &v); n == 2 && (leader < 0 || l == leader) {
					view = v
				}
			}
		}
		return view
	}
	logSize := func(i int) int64 {
		st, err := os.Stat(procs[i].log.Name())
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}

	cli, err := gosmr.Dial(gosmr.ClientConfig{Addrs: clientAddrs, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	acked := 0
	put := func(n int) {
		t.Helper()
		putKeys(t, cli, "ps", acked, n)
		acked += n
	}
	put(30)

	// Reboot the whole cluster with the crash point armed on replica 0. It
	// recovered the view it led, so it takes a fresh ballot, leads again,
	// and dies on the first Propose it sends: the next write.
	for _, p := range procs {
		p.kill9()
	}
	procs[0].env = []string{"GOSMR_CRASHPOINT=propose-sent"}
	marks := []int64{logSize(0), logSize(1), logSize(2)}
	for _, p := range procs {
		p.start()
	}
	put(1) // acknowledged by whoever leads once replica 0 has died
	if code := procs[0].waitExit(30 * time.Second); code != 137 {
		if out, err := os.ReadFile(procs[0].log.Name()); err == nil {
			t.Logf("victim log:\n%s", out)
		}
		t.Fatalf("replica 0 exited with %d, want 137 (never sent a Propose?)", code)
	}
	// The view it died in is the one its followers last followed it in (one
	// of them promised before it could lead, and prints stats every 50 ms).
	crashView := max(lastView(1, marks[1], 0), lastView(2, marks[2], 0))
	if crashView < 0 {
		t.Fatal("no follower ever reported replica 0 leading after the reboot")
	}
	put(14)

	// Restart the ex-leader, disarmed; it must end above the view it died in.
	procs[0].env = nil
	mark := logSize(0)
	procs[0].start()
	put(5)
	deadline := time.Now().Add(20 * time.Second)
	for lastView(0, mark, -1) <= crashView {
		if time.Now().After(deadline) {
			t.Fatalf("restarted ex-leader is in view %d, want > %d (the view it crashed in)", lastView(0, mark, -1), crashView)
		}
		time.Sleep(50 * time.Millisecond)
	}
	cli.Close()

	// Byte-identical state: stop the processes and boot the three DataDirs
	// in this process, where the KV stores and reply caches can be compared.
	for _, p := range procs {
		p.kill9()
	}
	net := transport.NewInproc(0)
	reps := make([]*gosmr.Replica, 3)
	stores := make([]*service.KV, 3)
	for i := range 3 {
		stores[i] = service.NewKV()
		rep, err := gosmr.NewReplica(gosmr.Config{
			ID: i, Peers: []string{"kps-r0", "kps-r1", "kps-r2"}, ClientAddr: fmt.Sprintf("kps-c%d", i),
			Network: net, DataDir: dirs[i], SyncPolicy: "batch",
			Groups: groups, SnapshotEvery: 40,
		}, stores[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Start(); err != nil {
			t.Fatal(err)
		}
		defer rep.Stop()
		reps[i] = rep
	}
	waitKV(t, stores, acked, 30*time.Second)
	waitReplyCaches(t, reps, 20*time.Second)
}
