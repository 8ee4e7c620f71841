package service

import (
	"time"

	"pseudocircuit/noc"
)

// FailJob enqueues a job whose workload cannot be built, so that it fails,
// and returns its ID.
func FailJob(m *Manager) string {
	canon, key, exp, err := Canonicalize(storeReq(99))
	if err != nil {
		panic(err)
	}
	canon.Workload = noc.WorkloadSpec{Kind: "cmp", Benchmark: "nonesuch"}
	m.mu.Lock()
	defer m.mu.Unlock()
	warmup, measure := exp.Protocol()
	return m.enqueueLocked(&answer{key: key, req: canon, cycles: warmup + measure}, exp, time.Now()).id()
}
