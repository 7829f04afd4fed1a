// Package distsim simulates the paper's distributed-streams model:
// t parties ("sites") each observe their own stream using small
// workspace and communicate exactly once — after their entire stream —
// by sending one message to a coordinator (the "referee"), which must
// then estimate aggregate functions over the set union of all streams.
// This mirrors the network-monitoring set-up the paper cites: one
// monitor per link, sketches collected afterwards.
//
// RunSites is the one site loop: it runs every site's stream through
// the protocol's site sketch, serially or one goroutine per site, and
// hands each end-of-stream message to a transport. Run delivers the
// messages to an in-process coordinator and accounts every byte sent,
// so experiments can report both estimation error and communication
// cost; internal/distnet delivers them over TCP instead. Because all
// the sketches in this repository merge commutatively and
// associatively, the coordinator's result is independent of message
// arrival order — a property the tests verify by comparing concurrent
// and serial runs.
package distsim

import (
	"fmt"
	"sync"

	"repro/internal/stream"
)

// SiteSketch is the per-site state of a protocol: it observes the
// site's stream one item at a time and, at end of stream, produces the
// single message the site sends to the coordinator.
type SiteSketch interface {
	Process(it stream.Item)
	// Message encodes the site's end-of-stream communication.
	Message() ([]byte, error)
}

// Coordinator is the referee-side state: it absorbs site messages (in
// any order) and answers aggregate queries over the union.
type Coordinator interface {
	Absorb(msg []byte) error
	// EstimateDistinct returns the estimated number of distinct labels
	// in the union of all absorbed streams.
	EstimateDistinct() float64
	// EstimateSum returns the estimated sum of values over distinct
	// labels of the union, or NaN if the protocol does not support
	// value sums.
	EstimateSum() float64
}

// Protocol is one complete distributed estimation scheme.
type Protocol interface {
	// Name identifies the protocol in experiment tables.
	Name() string
	// NewSite returns the sketch site i runs. Implementations derive
	// any per-site state from the protocol's shared configuration so
	// that sites are coordinated (or deliberately not, for the
	// uncoordinated baseline).
	NewSite(site int) SiteSketch
	// NewCoordinator returns an empty referee state.
	NewCoordinator() Coordinator
}

// Stats records the measurable costs of one protocol run.
type Stats struct {
	Sites          int
	ItemsProcessed int64
	Messages       int
	BytesSent      int64 // total communication, all sites
	MaxSiteBytes   int   // largest single site message
}

// Result is the outcome of one distributed run.
type Result struct {
	DistinctEstimate float64
	SumEstimate      float64
	Stats            Stats
}

// Run executes the one-shot protocol over the given per-site sources.
// When concurrent is true, sites process their streams in parallel
// goroutines; the coordinator absorbs messages in arrival order.
func Run(p Protocol, sources []stream.Source, concurrent bool) (*Result, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("distsim: no sources")
	}
	coord := p.NewCoordinator()
	acct := NewByteAccountant()
	var mu sync.Mutex // serializes absorbs from concurrent sites
	items, err := RunSites(p, sources, concurrent, func(site int, msg []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if err := coord.Absorb(msg); err != nil {
			return fmt.Errorf("coordinator absorbing site %d: %w", site, err)
		}
		acct.Record(len(msg))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("distsim: %w", err)
	}
	res := &Result{Stats: Stats{Sites: len(sources), ItemsProcessed: items}}
	acct.FillStats(&res.Stats)
	res.DistinctEstimate = coord.EstimateDistinct()
	res.SumEstimate = coord.EstimateSum()
	return res, nil
}

// RunSites runs every site of p over its source — serially, or one
// goroutine per site when concurrent is true — and hands each site's
// end-of-stream message to deliver, on that site's goroutine. It
// returns the items processed across all sites, or the first error in
// site order, from a site's Message or from deliver. A serial run
// stops at its first error.
func RunSites(p Protocol, sources []stream.Source, concurrent bool, deliver func(site int, msg []byte) error) (items int64, err error) {
	counts := make([]int64, len(sources))
	runSite := func(i int) error {
		sk := p.NewSite(i)
		stream.Feed(sources[i], func(it stream.Item) {
			sk.Process(it)
			counts[i]++
		})
		msg, err := sk.Message()
		if err != nil {
			return fmt.Errorf("site %d: %w", i, err)
		}
		return deliver(i, msg)
	}
	if concurrent {
		errs := make([]error, len(sources))
		var wg sync.WaitGroup
		for i := range sources {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = runSite(i)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
	} else {
		for i := range sources {
			if err := runSite(i); err != nil {
				return 0, err
			}
		}
	}
	for _, n := range counts {
		items += n
	}
	return items, nil
}
