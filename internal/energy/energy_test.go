package energy_test

import (
	"math"
	"testing"

	"pseudocircuit/internal/energy"
)

// TestTableIIPercentages checks the reproduced Table II component shares:
// buffer 23.4%, crossbar 76.22%, arbiter 0.24%.
func TestTableIIPercentages(t *testing.T) {
	buf, xbar, arb := energy.PaperParams().Shares()
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 0.005 {
			t.Errorf("%s share = %.4f, want %.4f", name, got, want)
		}
	}
	check("buffer", buf, 0.234)
	check("crossbar", xbar, 0.7622)
	check("arbiter", arb, 0.0024)
	if math.Abs(buf+xbar+arb-1) > 1e-12 {
		t.Errorf("shares sum to %v", buf+xbar+arb)
	}
}

func TestMeterAccounting(t *testing.T) {
	p := energy.PaperParams()
	m := energy.Meter{Params: p, Writes: 10, Reads: 10, Traversals: 10, Arbitrations: 10}
	wantBuf := 10 * (p.BufferWrite + p.BufferRead)
	if got := m.BufferEnergy(); math.Abs(got-wantBuf) > 1e-9 {
		t.Errorf("BufferEnergy = %v, want %v", got, wantBuf)
	}
	if got := m.CrossbarEnergy(); math.Abs(got-10*p.Crossbar) > 1e-9 {
		t.Errorf("CrossbarEnergy = %v", got)
	}
	if got := m.ArbiterEnergy(); math.Abs(got-10*p.Arbiter) > 1e-9 {
		t.Errorf("ArbiterEnergy = %v", got)
	}
	want := 10 * p.PerHopReference()
	if got := m.Total(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Total = %v, want %v", got, want)
	}
}

func TestZeroMeter(t *testing.T) {
	var m energy.Meter
	if m.Total() != 0 {
		t.Errorf("zero meter total = %v", m.Total())
	}
	b, x, a := m.Params.Shares()
	if b != 0 || x != 0 || a != 0 {
		t.Error("zero params shares not zero")
	}
}
