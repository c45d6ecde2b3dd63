package coremap_test

// Host-op contract pin: the exact sequence of raw host operations a
// default MapMachine performs. A hashing Host sits directly under the
// probe and folds every operation — kind, CPU, address or MSR, value and
// whether it failed — into a sha256. The goldens in
// testdata/host_trace_golden.json hold the op count and digest per run;
// any change to the probe's host-op decorators that reorders, adds, drops
// or retries an operation differently shows up here. Regenerate (only
// when the measurement semantics intentionally change) with:
//
//	go test -run TestHostTraceGolden -update-golden .

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"os"
	"reflect"
	"testing"

	"coremap"
	"coremap/internal/cmerr"
	"coremap/internal/faulty"
	"coremap/internal/hostif"
	"coremap/internal/machine"
	"coremap/internal/msr"
	"coremap/internal/probe"
)

const hostTraceGoldenPath = "testdata/host_trace_golden.json"

// hostTrace is the pinned summary of one run's host operations.
type hostTrace struct {
	Ops    int64  `json:"ops"`
	SHA256 string `json:"sha256"`
}

// hashHost records every operation it forwards into a running digest.
type hashHost struct {
	h   hostif.Host
	sum hash.Hash
	ops int64
	buf []byte
}

// Operation kinds as they enter the digest.
const (
	opRdmsr byte = iota + 1
	opWrmsr
	opLoad
	opTimedLoad
	opStore
	opFlush
)

func (h *hashHost) record(kind byte, cpu int, addr, val uint64, err error) {
	h.ops++
	b := append(h.buf[:0], kind)
	b = binary.AppendVarint(b, int64(cpu))
	b = binary.AppendUvarint(b, addr)
	b = binary.AppendUvarint(b, val)
	if err != nil {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	h.sum.Write(b)
	h.buf = b
}

func (h *hashHost) NumCPUs() int { return h.h.NumCPUs() }

func (h *hashHost) ReadMSR(cpu int, a msr.Addr) (uint64, error) {
	v, err := h.h.ReadMSR(cpu, a)
	h.record(opRdmsr, cpu, uint64(a), v, err)
	return v, err
}

func (h *hashHost) WriteMSR(cpu int, a msr.Addr, v uint64) error {
	err := h.h.WriteMSR(cpu, a, v)
	h.record(opWrmsr, cpu, uint64(a), v, err)
	return err
}

func (h *hashHost) Load(cpu int, addr uint64) error {
	err := h.h.Load(cpu, addr)
	h.record(opLoad, cpu, addr, 0, err)
	return err
}

func (h *hashHost) TimedLoad(cpu int, addr uint64) (uint64, error) {
	c, err := h.h.TimedLoad(cpu, addr)
	h.record(opTimedLoad, cpu, addr, c, err)
	return c, err
}

func (h *hashHost) Store(cpu int, addr uint64) error {
	err := h.h.Store(cpu, addr)
	h.record(opStore, cpu, addr, 0, err)
	return err
}

func (h *hashHost) Flush(cpu int, addr uint64) error {
	err := h.h.Flush(cpu, addr)
	h.record(opFlush, cpu, addr, 0, err)
	return err
}

// hostTraceRun maps pattern 0 of sku (machine seed 7) with default
// options, clean or behind the seeded fault injector, and returns the
// digest of every host operation the probe issued.
func hostTraceRun(t *testing.T, sku *machine.SKU, faults bool) hostTrace {
	t.Helper()
	m := machine.Generate(sku, 0, machine.Config{Seed: 7})
	var inner hostif.Host = m
	var opts coremap.Options
	if faults {
		inner = faulty.New(m, faulty.Options{Seed: 3, Rate: 0.02, StuckCPUs: []int{5}})
		opts.Probe = probe.Options{RetryBackoff: -1}
	}
	hh := &hashHost{h: inner, sum: sha256.New()}
	die := coremap.DieInfo{Rows: sku.Rows, Cols: sku.Cols, IMC: sku.IMC}
	_, err := coremap.MapMachine(context.Background(), hh, die, opts)
	if err != nil && !cmerr.IsDegraded(err) {
		t.Fatalf("%s faults=%v: %v", sku.Name, faults, err)
	}
	return hostTrace{Ops: hh.ops, SHA256: hex.EncodeToString(hh.sum.Sum(nil))}
}

func TestHostTraceGolden(t *testing.T) {
	got := make(map[string]hostTrace)
	for _, sku := range []*machine.SKU{machine.SKU8175M, machine.SKU8259CL} {
		got[sku.Name+"/clean"] = hostTraceRun(t, sku, false)
		got[sku.Name+"/faulty"] = hostTraceRun(t, sku, true)
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(hostTraceGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d host traces to %s", len(got), hostTraceGoldenPath)
		return
	}

	buf, err := os.ReadFile(hostTraceGoldenPath)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with -update-golden): %v", err)
	}
	want := make(map[string]hostTrace)
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("host traces diverged from golden\n got %+v\nwant %+v", got, want)
	}
}
