package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"safetsa/internal/codeserver"
)

// environment says where and how a run was made, so that two reports
// can be told apart before their numbers are compared.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	// Sources is the SHA-256 of every program's source text: the same
	// seed gives the same inputs.
	Sources string  `json:"sources_sha256"`
	Seconds float64 `json:"seconds"`
	// Scale is the common factor on every workload's op count, 1 being
	// fullScaleSeconds of timed rounds.
	Scale       float64           `json:"scale"`
	Clients     int               `json:"clients"`
	Tenants     int               `json:"tenants"`
	Rounds      int               `json:"rounds"`
	OpsPerRound int               `json:"ops_per_round"`
	Config      codeserver.Config `json:"server_config"`
}

func readEnvironment(opt options) environment {
	cfg := baseConfig()
	if opt.workload.config != nil {
		opt.workload.config(&cfg)
	}
	return environment{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Scale:      opt.seconds / fullScaleSeconds,
		Clients:    numClients,
		Tenants:    numTenants,
		Rounds:     opt.rounds,
		Config:     cfg,
	}
}

// commit asks git; a checkout that is not a repository has none.
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// machineKernel is a memory-bound kernel that allocates nothing: one
// goroutine per client chases pointers through a random cycle in a
// buffer far larger than the private caches. On the shared box this was
// written on, speed drifts by tens of percent for minutes at a time,
// and what slows is the memory system: a kernel like this one slowed in
// step with the workloads (correlation 0.99 per run) while an
// arithmetic kernel did not. It is timed around every round so that a
// round can be put on the footing of a quiet machine.
//
// The buffer is mapped outside the Go heap: inside, its size would
// change the collector's pacing for the server under test.
type machineKernel struct {
	buf []byte
	// sink keeps the chase's result alive, so the loop is not optimized
	// away.
	sink uint32
}

const (
	kernelWords = 1 << 22 // 16 MiB of uint32
	kernelSteps = 200_000
	// kernelRefMs is the kernel's time on the reference machine: the
	// box the workloads were sized on, in a quiet moment.
	kernelRefMs = 30.0
)

func newMachineKernel() (*machineKernel, error) {
	buf, err := syscall.Mmap(-1, 0, 4*kernelWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	// Word i points at (a*i + c) mod 2^22, a full-period congruential
	// sequence: one cycle through every word, in an order no prefetcher
	// follows.
	for i := 0; i < kernelWords; i++ {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(1664525*i+1013904223)%kernelWords)
	}
	return &machineKernel{buf: buf}, nil
}

func (k *machineKernel) close() error { return syscall.Munmap(k.buf) }

// run times one pass of the kernel, in milliseconds.
func (k *machineKernel) run() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	var ends [numClients]uint32
	for g := range ends {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			at := uint32(g * (kernelWords / numClients))
			for s := 0; s < kernelSteps; s++ {
				at = binary.LittleEndian.Uint32(k.buf[4*at:])
			}
			ends[g] = at
		}(g)
	}
	wg.Wait()
	k.sink += ends[0]
	return float64(time.Since(start)) / 1e6
}
