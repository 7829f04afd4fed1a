// Package allocgate holds the allocation table: the heap allocations
// (runtime.MemStats.Mallocs) that each registered kind's Process,
// Merge, envelope decode and encode and coordinator absorb, and the
// WAL append, make on a fixed, seeded input. Its test fails when a
// count rises, and when one falls until the table is lowered to
// match, so the table stays exact. An exact row counts the least of
// three runs on fresh state: the runtime can fill a type assertion's
// cache, and a map that deletes (a window level's index) can reach a
// seed-dependent growth point, inside any one run, but neither
// repeats in all three. The process rows feed fresh labels to warm
// sketches, so an allocation that a sketch makes only when it inserts
// or raises its level shows up in the count.
package allocgate
