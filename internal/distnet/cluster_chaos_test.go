package distnet

// Chaos suite for the sharded tier: seeded faultnet proxies on every
// hop — one per site→shard link, one on the shard→parent relay link —
// inject rejected dials, mid-frame truncations, corrupted bytes,
// swallowed acks, and replayed (duplicate) deliveries. Site retries,
// batched-push resume, and relay re-flushes must ride all of it out,
// and the parent must still end bit-identical to the single
// coordinator that absorbed every site push directly.
//
// Run with -chaos.seed=N to pin the fault schedules; ci.sh sweeps
// seeds 1..3.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultnet"
)

// TestChaosClusterConvergesThroughFaultyHops: the tentpole's chaos
// leg. Two waves of site pushes and repeated relay flushes through
// independently scheduled fault proxies on both tiers of the tree.
func TestChaosClusterConvergesThroughFaultyHops(t *testing.T) {
	for _, seed := range chaosSeeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const groups = 150
			ctl, ctlAddr := controlServer(t)
			ctlClient := client.New(clientConfig(ctlAddr))

			// The relay hop's proxy is created inside the intercept so the
			// shards dial it from birth; its schedule is seeded apart from
			// the shard hops so the two tiers fault independently.
			var upFleet *faultnet.Fleet
			c, err := StartCluster(ClusterOptions{
				Shards:      3,
				RingSeed:    42,
				Attempts:    25,
				BackoffBase: time.Millisecond,
				IOTimeout:   250 * time.Millisecond,
				InterceptUpstream: func(addr string) (string, error) {
					f, ferr := faultnet.NewFleet([]string{addr}, func(int) faultnet.Schedule {
						return faultnet.Seeded(seed<<8 | 7)
					})
					if ferr != nil {
						return "", ferr
					}
					upFleet = f
					return f.Addrs()[0], nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			shardFleet, err := faultnet.NewFleet(c.ShardAddrs, func(i int) faultnet.Schedule {
				return faultnet.Seeded(seed<<8 | uint64(i))
			})
			if err != nil {
				t.Fatal(err)
			}
			// Shards drain-flush on Close; the proxies must outlive them.
			defer upFleet.Close()
			defer shardFleet.Close()
			defer func() {
				if cerr := c.Close(); cerr != nil {
					t.Errorf("cluster close: %v", cerr)
				}
			}()
			sc, err := client.NewSharded(c.Ring, shardFleet.Addrs(), client.Config{
				Attempts:    25,
				BackoffBase: time.Millisecond,
				BackoffMax:  8 * time.Millisecond,
				IOTimeout:   250 * time.Millisecond,
				JitterSeed:  1,
			})
			if err != nil {
				t.Fatal(err)
			}

			// flushUntilClean re-runs the relay until every absorb has been
			// acked upstream: the at-least-once loop a real relay's timer
			// provides, compressed for the test.
			flushUntilClean := func(wave int) {
				t.Helper()
				for i := 0; i < 60 && c.PendingRelay() > 0; i++ {
					if _, ferr := c.FlushAll(); ferr != nil {
						t.Logf("seed %d wave %d flush retry %d: %v", seed, wave, i, ferr)
					}
				}
				if p := c.PendingRelay(); p != 0 {
					t.Fatalf("seed %d wave %d: %d absorbs still pending after retries", seed, wave, p)
				}
			}

			for wave := 0; wave < 2; wave++ {
				recs := clusterRecords(t, groups, wave)
				pushSharded(t, sc, recs)
				if _, err := ctlClient.PushBatchNamed(recs); err != nil {
					t.Fatal(err)
				}
				flushUntilClean(wave)
			}

			requireIdentical(t, c.Parent, ctl, fmt.Sprintf("seed %d parent", seed))
			if shardFleet.TraceString() == "" || upFleet.TraceString() == "" {
				t.Errorf("seed %d: a fault proxy never saw traffic (shard trace empty: %v, upstream trace empty: %v)",
					seed, shardFleet.TraceString() == "", upFleet.TraceString() == "")
			}
		})
	}
}
