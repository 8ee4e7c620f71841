//go:build unix

package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"pseudocircuit/internal/service"
)

// TestBlockedDiskReadHoldsNoLock: the disk tier is read with the manager's
// lock released. The entry of one key is a FIFO nobody writes to, so the
// read of it blocks like a dying disk would; while it does, status reads,
// the job list, /readyz, /metrics and submissions of keys held in memory are
// all still answered: no gauge takes the store's lock, which store.Get holds
// across its read.
func TestBlockedDiskReadHoldsNoLock(t *testing.T) {
	dir := t.TempDir()
	srv, d, c := startDaemon(t, "-workers", "1", "-store-dir", dir, "-store-bytes", "1048576")
	m := d.jobs
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	first, err := c.SubmitWait(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}

	_, key, _, err := service.Canonicalize(smallReq(2))
	if err != nil {
		t.Fatal(err)
	}
	fifo := filepath.Join(dir, key)
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	unblock := func() { // the read returns no bytes: a corrupt entry, a miss
		if w, err := os.OpenFile(fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
			w.Close()
		}
	}
	t.Cleanup(unblock) // whatever fails below, the server must be able to close
	blocked := make(chan error, 1)
	go func() {
		_, err := m.Submit(smallReq(2)) // memory and in-flight miss; the disk read blocks
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("the submission did not block on its disk read (err %v)", err)
	case <-time.After(100 * time.Millisecond):
	}

	short, stop := context.WithTimeout(ctx, 5*time.Second)
	defer stop()
	if j, err := c.Job(short, first.ID); err != nil || j.ID != first.ID {
		t.Fatalf("GET /jobs/{id} behind a blocked disk read: %+v, %v", j, err)
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/jobs", "/readyz", "/metrics"} {
		resp, err := hc.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s behind a blocked disk read: %v", path, err)
		}
		// To the last byte: /metrics streams, and its store gauges come late.
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s behind a blocked disk read: body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	if j, err := c.Submit(short, smallReq(1)); err != nil || !j.CacheHit {
		t.Fatalf("memory hit behind a blocked disk read: %+v, %v", j, err)
	}

	// The disk answers at last, with a miss: the job is simulated after all.
	unblock()
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("submission after the disk answered: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("submission still blocked after the disk answered")
	}
	_, body := get(t, srv.URL+"/metrics")
	if n, _ := sampleSum(body, "nocd_store_corrupt_total"); n != 1 {
		t.Fatalf("the empty entry was counted corrupt %g times, want 1", n)
	}
}
