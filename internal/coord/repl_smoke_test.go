package coord_test

import (
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mosaic"
	"mosaic/client"
)

// TestReplicationProcessSmoke is the replication story with real processes:
// a primary mosaic-serve, a `mosaic-serve -follow` replica that bootstraps
// over real HTTP, and a coordinator registered with both. Routed reads must
// answer byte-identical bytes, writes must replicate to the follower within
// its poll interval, and a SIGKILL of the follower must never produce a
// wrong, partial, or unnecessarily failed read while the primary survives.
func TestReplicationProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real processes")
	}
	script, opts := worldScript(t)
	dir := t.TempDir()
	serveBin := filepath.Join(dir, "mosaic-serve")
	coordBin := filepath.Join(dir, "mosaic-coord")
	for bin, pkg := range map[string]string{serveBin: "mosaic/cmd/mosaic-serve", coordBin: "mosaic/cmd/mosaic-coord"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	init := filepath.Join(dir, "world.sql")
	if err := os.WriteFile(init, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}

	primaryAddr := procAddr(t)
	startProc(t, serveBin, "-addr", primaryAddr, "-seed", "1", init)
	waitUp(t, client.New("http://"+primaryAddr))

	// The follower bootstraps its whole state from the primary over HTTP —
	// no init script, same engine options (the replay determinism contract).
	followerAddr := procAddr(t)
	followerProc := startProc(t, serveBin,
		"-addr", followerAddr,
		"-seed", "1",
		"-follow", "http://"+primaryAddr,
		"-follow-interval", "50ms")
	waitUp(t, client.New("http://"+followerAddr))

	// The follower is read-only: DDL/DML straight at it answers 403.
	var re *client.RemoteError
	if err := client.New("http://" + followerAddr).Exec("CREATE TABLE Nope (v INT)"); !asRemote(err, &re) || re.StatusCode != http.StatusForbidden {
		t.Fatalf("exec on the follower process: %v, want 403", err)
	}

	coordAddr := procAddr(t)
	coordProc := startProc(t, coordBin,
		"-addr", coordAddr,
		"-shards", "http://"+primaryAddr,
		"-replicas", "0=http://"+followerAddr,
		"-replica-poll", "50ms",
		"-boot-timeout", "30s")
	coordURL := "http://" + coordAddr
	cc := client.New(coordURL)
	waitUp(t, cc)
	waitCaughtUp(t, coordURL, 1)

	ref := mosaic.Open(opts)
	if err := ref.Restore(script); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT CLOSED carrier, AVG(distance) FROM Flights GROUP BY carrier ORDER BY carrier",
		"SELECT SEMI-OPEN AVG(taxi_in) FROM Flights WHERE elapsed_time < 200",
		"SELECT COUNT(*) FROM FlightsSample",
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range queries {
			want, err := ref.Query(q)
			if err != nil {
				t.Fatalf("%s: reference %q: %v", stage, q, err)
			}
			got, err := cc.Query(q)
			if err != nil {
				t.Fatalf("%s: fleet %q: %v", stage, q, err)
			}
			if render(got) != render(want) {
				t.Errorf("%s: %q diverged from the in-process reference\nfleet: %q\nref:   %q", stage, q, render(got), render(want))
			}
		}
	}
	check("boot")

	// Writes go to the primary; the follower must tail them and rejoin read
	// routing at the new generation within its poll interval.
	const dml = "CREATE TABLE Smoke (v INT); INSERT INTO Smoke VALUES (1), (2), (3)"
	if err := cc.Exec(dml); err != nil {
		t.Fatal(err)
	}
	if err := ref.Exec(dml); err != nil {
		t.Fatal(err)
	}
	queries = append(queries, "SELECT COUNT(*), SUM(v) FROM Smoke")
	waitCaughtUp(t, coordURL, 1)
	check("post-exec")

	// Keep reading until the routing split proves the replica served some of
	// the traffic — the read-scaling point of the whole subsystem.
	deadline := time.Now().Add(15 * time.Second)
	for coordStats(t, coordURL).ReplicaReads == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no read was ever routed to the follower process")
		}
		check("routing-split")
	}

	// SIGKILL the follower — the TCP peer vanishes mid-fleet. Every read
	// afterwards must still answer, correctly, from the primary.
	if err := followerProc.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = waitProcExit(followerProc, 10*time.Second)
	for i := 0; i < 5; i++ {
		check("post-kill")
	}

	// The coordinator reports the dead replica but keeps serving.
	resp, err := http.Get(coordURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 8192)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), `"status":"degraded"`) {
		t.Errorf("healthz after follower death = %s, want degraded", body[:n])
	}

	_ = coordProc.Process.Signal(syscall.SIGTERM)
	_ = waitProcExit(coordProc, 10*time.Second)
}
