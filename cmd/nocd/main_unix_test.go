//go:build unix

package main

import (
	"bytes"
	"flag"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// asNocd, set in a child's environment, makes the test binary run main
// with the child's arguments instead of the tests.
const asNocd = "NOCD_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asNocd) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// nocdProcess starts this test binary as nocd with args. Under -cover the
// child writes its coverage beside the parent's, so main is counted.
func nocdProcess(t *testing.T, args ...string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asNocd+"=1")
	if f := flag.Lookup("test.gocoverdir"); f != nil && f.Value.String() != "" {
		cmd.Env = append(cmd.Env, "GOCOVERDIR="+f.Value.String())
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, &stderr
}

// freeAddr returns a localhost address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestMainDrainsOnSIGTERM runs nocd as shipped, as its own process on a
// temporary store: it becomes ready, serves a job, and on SIGTERM drains and
// exits 0 with its drain notice on stderr, once the job still running at the
// signal has finished and reached the store.
func TestMainDrainsOnSIGTERM(t *testing.T) {
	addr, dir := freeAddr(t), t.TempDir()
	cmd, stderr := nocdProcess(t, "-listen", addr, "-store-dir", dir, "-drain", "10s")
	base := "http://" + addr
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("nocd not ready on %s within 20 s; stderr:\n%s", addr, stderr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err := http.Post(base+"/jobs?wait=1", "application/json", strings.NewReader(
		`{"topology":"mesh4x4","scheme":"pseudo+s+b","warmup":100,"measure":400,"workload":{"pattern":"uniform","rate":0.1}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /jobs?wait=1: status %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/jobs", "application/json", strings.NewReader(
		`{"topology":"mesh4x4","scheme":"pseudo+s+b","warmup":100,"measure":200000,"workload":{"pattern":"uniform","rate":0.1}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("POST /jobs: status %d", resp.StatusCode)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("nocd after SIGTERM: %v; stderr:\n%s", err, stderr)
	}
	if des, err := os.ReadDir(dir); err != nil || len(des) != 3 { // EPOCH and both results
		t.Errorf("store after the drain: %d files (%v), want EPOCH and 2 entries", len(des), err)
	}
	for _, want := range []string{"nocd: result store ", "nocd: listening on " + addr, "nocd: draining (deadline 10s)"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// TestMainFailsByName: a daemon that cannot be built, or cannot listen, is
// one "nocd: ..." line on stderr and exit status 1.
func TestMainFailsByName(t *testing.T) {
	held, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for name, c := range map[string]struct {
		args []string
		want string
	}{
		"bad flags":    {[]string{"-peers", "http://localhost:1"}, "nocd: -peers requires -self"},
		"address held": {[]string{"-listen", held.Addr().String()}, "address already in use"},
	} {
		t.Run(name, func(t *testing.T) {
			cmd, stderr := nocdProcess(t, c.args...)
			err := cmd.Wait()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1; stderr:\n%s", err, stderr)
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr lacks %q:\n%s", c.want, stderr)
			}
		})
	}
}
