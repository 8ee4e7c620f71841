package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	_ "net/http/pprof"
	"time"

	"pseudocircuit/internal/service"
	"pseudocircuit/internal/sweepapi"
	"pseudocircuit/internal/telemetry"
	"pseudocircuit/nocdclient"
)

// maxBodyBytes bounds a job-submission body; specs are a few hundred bytes.
// Sweep bodies carry a grid on top of the template and stay well under it.
const maxBodyBytes = 1 << 20

// watchInterval paces the progress lines of GET /jobs/{id}?watch=1 while the
// job runs; its completion ends the stream at once, not at the next tick.
const watchInterval = 250 * time.Millisecond

// sweepWatchInterval paces the point lines of a sweep stream while the sweep
// runs; as with jobs, completion does not wait for it. Sweeps complete many
// small points per second on a warm cache, so they report faster than jobs.
const sweepWatchInterval = 100 * time.Millisecond

// newMux builds nocd's HTTP surface: the service API and the stock
// /debug/pprof subtree. newDaemon is its one caller.
func newMux(m *service.Manager, sw *sweepapi.Manager) *http.ServeMux {
	mux := http.NewServeMux()
	// /healthz is liveness only: the process is up and serving. Readiness
	// (would a submission be accepted right now?) is /readyz, which load
	// balancers should poll instead.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Ready(); err != nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", telemetry.ContentType)
		m.Telemetry().WritePrometheus(w)
	})
	// /spans exports the job-lifecycle span log: JSONL by default,
	// ?format=chrome for a chrome://tracing / Perfetto document.
	mux.HandleFunc("GET /spans", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "", "jsonl":
			w.Header().Set("Content-Type", "application/x-ndjson")
			m.SpanLog().WriteJSONL(w)
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			m.SpanLog().WriteChromeTrace(w)
		default:
			writeError(w, http.StatusBadRequest, errors.New("unknown format; want jsonl or chrome"))
		}
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(m, w, r)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleStatus(m, w, r)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		handleResult(m, w, r)
	})
	cancel := func(w http.ResponseWriter, r *http.Request) {
		handleCancel(m, w, r)
	}
	mux.HandleFunc("POST /jobs/{id}/cancel", cancel)
	mux.HandleFunc("DELETE /jobs/{id}", cancel)

	mux.HandleFunc("POST /sweeps", func(w http.ResponseWriter, r *http.Request) {
		handleSweepSubmit(sw, w, r)
	})
	mux.HandleFunc("GET /sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, sw.Sweeps())
	})
	mux.HandleFunc("GET /sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleSweepStatus(sw, w, r)
	})
	sweepCancel := func(w http.ResponseWriter, r *http.Request) {
		st, err := sw.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	}
	mux.HandleFunc("POST /sweeps/{id}/cancel", sweepCancel)
	mux.HandleFunc("DELETE /sweeps/{id}", sweepCancel)
	// The pprof handlers self-register on the default mux; delegate the
	// whole /debug/ subtree to it.
	mux.Handle("GET /debug/", http.DefaultServeMux)
	return mux
}

// readBody reads a submission body within maxBodyBytes; when it cannot, it
// has answered the request and returns false.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	switch {
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	case len(body) > maxBodyBytes:
		writeError(w, http.StatusRequestEntityTooLarge, errors.New("request body over 1 MiB"))
	default:
		return body, true
	}
	return nil, false
}

func handleSweepSubmit(sw *sweepapi.Manager, w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	st, err := sw.Submit(body)
	switch {
	case errors.Is(err, service.ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil: // Submit's every other error wraps service.ErrBadRequest
		writeError(w, http.StatusBadRequest, err)
		return
	}
	answerSweep(sw, w, r, st, http.StatusAccepted)
}

func handleSweepStatus(sw *sweepapi.Manager, w http.ResponseWriter, r *http.Request) {
	st, ok := sw.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, sweepapi.ErrUnknownSweep)
		return
	}
	answerSweep(sw, w, r, st, http.StatusOK)
}

// answerSweep answers a request about sweep st as its query asks: ?watch=1
// streams it, ?wait=1 blocks until it is terminal, neither returns the
// snapshot at hand with the status given.
func answerSweep(sw *sweepapi.Manager, w http.ResponseWriter, r *http.Request, st sweepapi.Status, status int) {
	q := r.URL.Query()
	switch {
	case q.Get("watch") != "":
		streamSweep(sw, w, r, st.ID)
	case q.Get("wait") != "":
		fin, err := sw.Wait(r.Context(), st.ID)
		if err != nil {
			if r.Context().Err() != nil {
				return // client gone; the sweep keeps running
			}
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeJSON(w, http.StatusOK, fin)
	default:
		writeJSON(w, status, st)
	}
}

// streamSweep replays the sweep's completed points from the beginning and
// follows it live as NDJSON until the terminal status ("end" line) or the
// client disconnects. Disconnecting does not cancel the sweep — results
// keep accumulating in the cache and a reconnect replays them all; use the
// cancel endpoint to stop the work itself.
func streamSweep(sw *sweepapi.Manager, w http.ResponseWriter, r *http.Request, id string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(sweepWatchInterval)
	defer ticker.Stop()

	st, ok := sw.Get(id)
	if !ok {
		return
	}
	done, _ := sw.Done(id)
	if err := enc.Encode(nocdclient.SweepLine{Type: "sweep", Sweep: &st}); err != nil {
		return
	}
	cursor := 0
	for {
		pts, next, st, ok := sw.PointsSince(id, cursor)
		if !ok {
			return
		}
		cursor = next
		for i := range pts {
			if err := enc.Encode(nocdclient.SweepLine{Type: "point", Point: &pts[i]}); err != nil {
				return
			}
		}
		if flusher != nil && len(pts) > 0 {
			flusher.Flush()
		}
		// Terminal status means every point is published; with the cursor
		// caught up the stream is complete.
		if st.Terminal() && cursor == st.Completed {
			enc.Encode(nocdclient.SweepLine{Type: "end", Sweep: &st})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-done:
			done = nil // woken once; the next pass reads the terminal status
		case <-ticker.C:
		}
	}
}

func handleSubmit(m *service.Manager, w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := service.DecodeRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := m.Submit(req)
	switch {
	case errors.Is(err, service.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, service.ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil: // Submit's every other error wraps service.ErrBadRequest
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		jw, err := m.Wait(r.Context(), j.ID)
		if err != nil {
			// The wait failed, so jw is a stale snapshot — a 200 here would
			// hand the client a non-terminal state as if the job finished.
			if r.Context().Err() != nil {
				return // client gone; nobody is reading the response
			}
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		j = jw
	}
	noteJob(r, j)
	status := http.StatusAccepted
	if j.State.Terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, j)
}

func handleStatus(m *service.Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, service.ErrUnknownJob)
		return
	}
	noteJob(r, j)
	q := r.URL.Query()
	switch {
	case q.Get("watch") != "":
		streamStatus(m, w, r, id)
	case q.Get("wait") != "":
		jw, err := m.Wait(r.Context(), id)
		if err != nil {
			// Same contract as submit?wait: never 200 with a stale snapshot.
			if r.Context().Err() != nil {
				return
			}
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		noteJob(r, jw)
		writeJSON(w, http.StatusOK, jw)
	default:
		writeJSON(w, http.StatusOK, j)
	}
}

// streamStatus writes one status line per tick as NDJSON, and a last one as
// soon as the job is terminal, until then or until the client goes away;
// per-chunk progress (cyclesDone) arrives as the simulation crosses chunk
// boundaries.
func streamStatus(m *service.Manager, w http.ResponseWriter, r *http.Request, id string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(watchInterval)
	defer ticker.Stop()
	done, _ := m.Done(id)
	for {
		j, ok := m.Get(id)
		if !ok {
			return
		}
		if err := enc.Encode(j); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if j.State.Terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-done:
			done = nil
		case <-ticker.C:
		}
	}
}

func handleResult(m *service.Manager, w http.ResponseWriter, r *http.Request) {
	j, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, service.ErrUnknownJob)
		return
	}
	noteJob(r, j)
	switch j.State {
	case service.StateDone:
		writeJSON(w, http.StatusOK, j.Result)
	case service.StateFailed:
		writeError(w, http.StatusInternalServerError, errors.New(j.Error))
	case service.StateCanceled:
		writeError(w, http.StatusGone, errors.New("job canceled"))
	default:
		writeError(w, http.StatusConflict, errors.New("job not finished: "+string(j.State)))
	}
}

func handleCancel(m *service.Manager, w http.ResponseWriter, r *http.Request) {
	j, err := m.Cancel(r.PathValue("id"))
	if errors.Is(err, service.ErrUnknownJob) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	noteJob(r, j)
	writeJSON(w, http.StatusOK, j)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
