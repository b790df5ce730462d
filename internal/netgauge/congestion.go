// Congestion patterns: where netgauge.Run measures the LogGP parameters
// of an uncontended path, Congestion drives classic contention patterns —
// incast fan-in, permutation traffic, bisection stress — over a graph
// topology and reports what the fabric's per-link cursors observed:
// completion time, aggregate delivered bandwidth, per-link utilization,
// and queueing-delay percentiles. These are the observables the paper's
// congestion discussion (and the MPICH2-over-InfiniBand design study)
// reason about; the report makes them first-class experiment outputs.
package netgauge

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// CongestionConfig describes one congestion measurement.
type CongestionConfig struct {
	// Topo is the topology under test. Flat topologies are rejected:
	// without link cursors there is nothing to contend on.
	Topo *fabric.Topology
	// Pattern selects the traffic: "incast:F" (hosts 1..F all send to
	// host 0), "permutation" (host i sends to its edge neighbour i^1 —
	// uncongested on a fat-tree), or "bisection" (host i sends to
	// (i+H/2) mod H, stressing the spine/global links).
	Pattern string
	// Bytes is the per-flow payload. Zero selects 1 MiB.
	Bytes int
	// Shards and Workers configure the conservative-PDES run; zero runs
	// serial. The report is byte-identical under any shard/worker count.
	Shards  int
	Workers int
}

// LinkReport is one link's observed load.
type LinkReport struct {
	Name        string        `json:"name"`
	Bytes       int64         `json:"bytes"`
	Utilization float64       `json:"utilization"` // busy time / completion time
	QueueP50    time.Duration `json:"queue_p50_ns"`
	QueueP99    time.Duration `json:"queue_p99_ns"`
	QueueMax    time.Duration `json:"queue_max_ns"`
}

// CongestionReport is the outcome of one congestion pattern.
type CongestionReport struct {
	Topology     string `json:"topology"`
	Pattern      string `json:"pattern"`
	Flows        int    `json:"flows"`
	BytesPerFlow int    `json:"bytes_per_flow"`
	// Completion is the virtual makespan: last delivery instant.
	Completion time.Duration `json:"completion_ns"`
	// AggregateBandwidth is delivered payload over the makespan, B/s.
	AggregateBandwidth float64 `json:"aggregate_bw_bytes_per_sec"`
	// MaxLinkUtilization is the busiest link's busy fraction, with its
	// name alongside; Links carries every link that saw traffic.
	MaxLinkUtilization float64      `json:"max_link_utilization"`
	MaxLink            string       `json:"max_link"`
	Links              []LinkReport `json:"links,omitempty"`
	// Queueing-delay percentiles across every link charge of the run.
	QueueP50 time.Duration `json:"queue_p50_ns"`
	QueueP99 time.Duration `json:"queue_p99_ns"`
	QueueMax time.Duration `json:"queue_max_ns"`
}

// flowSpec is one (src, dst) pair of the pattern.
type flowSpec struct{ src, dst int }

func patternFlows(pattern string, hosts int) ([]flowSpec, error) {
	kind, arg, _ := strings.Cut(pattern, ":")
	switch kind {
	case "incast":
		fan := hosts - 1
		if arg != "" {
			n, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("netgauge: incast fan-in %q: %v", arg, err)
			}
			fan = n
		}
		if fan < 1 || fan >= hosts {
			return nil, fmt.Errorf("netgauge: incast fan-in %d needs 1..%d senders", fan, hosts-1)
		}
		flows := make([]flowSpec, fan)
		for i := range flows {
			flows[i] = flowSpec{src: i + 1, dst: 0}
		}
		return flows, nil
	case "permutation":
		if arg != "" {
			return nil, fmt.Errorf("netgauge: permutation takes no argument, got %q", arg)
		}
		flows := make([]flowSpec, 0, hosts)
		for i := 0; i < hosts; i++ {
			if d := i ^ 1; d < hosts {
				flows = append(flows, flowSpec{src: i, dst: d})
			}
		}
		return flows, nil
	case "bisection":
		if arg != "" {
			return nil, fmt.Errorf("netgauge: bisection takes no argument, got %q", arg)
		}
		if hosts < 2 {
			return nil, fmt.Errorf("netgauge: bisection needs >= 2 hosts")
		}
		flows := make([]flowSpec, hosts)
		for i := 0; i < hosts; i++ {
			flows[i] = flowSpec{src: i, dst: (i + hosts/2) % hosts}
		}
		return flows, nil
	default:
		return nil, fmt.Errorf("netgauge: unknown pattern %q (have incast[:F], permutation, bisection)", pattern)
	}
}

// Congestion runs one traffic pattern over a graph topology and reports
// the fabric's per-link observations. The flows drive the fabric
// directly (no MPI layer): this measures the interconnect, not the
// software stack above it.
func Congestion(cfg CongestionConfig) (CongestionReport, error) {
	if cfg.Topo == nil || cfg.Topo.Flat() {
		return CongestionReport{}, fmt.Errorf("netgauge: congestion patterns need a graph topology (fat-tree/dragonfly)")
	}
	hosts := cfg.Topo.Hosts()
	bytes := cfg.Bytes
	if bytes == 0 {
		bytes = 1 << 20
	}
	flows, err := patternFlows(cfg.Pattern, hosts)
	if err != nil {
		return CongestionReport{}, err
	}

	ccfg := cluster.Config{
		Nodes:        hosts,
		CoresPerNode: 1,
		Fabric:       fabric.Config{Topo: cfg.Topo},
		Shards:       cfg.Shards,
	}
	if err := ccfg.Validate(); err != nil {
		return CongestionReport{}, err
	}
	cl := cluster.New(ccfg)
	ends := make([]sim.Time, len(flows))
	for i, fs := range flows {
		i := i
		src := cl.Nodes[fs.src].HCA.Port()
		dst := cl.Nodes[fs.dst].HCA.Port()
		fl := cl.Fabric.NewFlowID(src, dst, uint64(i))
		fl.Send(fabric.Message{Bytes: bytes, OnDeliver: func(at sim.Time) { ends[i] = at }})
	}
	if err := cl.Run(cfg.Workers); err != nil {
		return CongestionReport{}, err
	}

	var last sim.Time
	for _, at := range ends {
		if at > last {
			last = at
		}
	}
	completion := time.Duration(last)
	rep := CongestionReport{
		Topology:     cfg.Topo.Name(),
		Pattern:      cfg.Pattern,
		Flows:        len(flows),
		BytesPerFlow: bytes,
		Completion:   completion,
	}
	if completion > 0 {
		rep.AggregateBandwidth = float64(len(flows)) * float64(bytes) / (float64(completion) / float64(time.Second))
	}

	var merged fabric.LinkStats
	for _, ls := range cl.Fabric.LinkStats() {
		if ls.Charges == 0 {
			continue
		}
		util := 0.0
		if completion > 0 {
			util = float64(ls.Busy) / float64(completion)
		}
		rep.Links = append(rep.Links, LinkReport{
			Name:        ls.Link.Name,
			Bytes:       ls.Bytes,
			Utilization: util,
			QueueP50:    ls.QueuePercentile(0.50),
			QueueP99:    ls.QueuePercentile(0.99),
			QueueMax:    ls.MaxQueue,
		})
		if util > rep.MaxLinkUtilization {
			rep.MaxLinkUtilization = util
			rep.MaxLink = ls.Link.Name
		}
		merged.Charges += ls.Charges
		for b, c := range ls.QueueHist {
			merged.QueueHist[b] += c
		}
		if ls.MaxQueue > merged.MaxQueue {
			merged.MaxQueue = ls.MaxQueue
		}
	}
	rep.QueueP50 = merged.QueuePercentile(0.50)
	rep.QueueP99 = merged.QueuePercentile(0.99)
	rep.QueueMax = merged.MaxQueue
	return rep, nil
}
