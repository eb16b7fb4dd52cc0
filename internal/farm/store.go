package farm

import (
	"repro"
)

// Store is a persistent, content-addressed result store layered underneath
// the in-memory LRU (internal/cluster/diskstore is the on-disk
// implementation). The farm consults it after an LRU miss before running a
// simulation, and writes every freshly computed report back, so results
// survive process restarts and — when workers share one store — node churn.
//
// Contract: Get returns (nil, false, nil) for a never-stored key; an
// unreadable or corrupt entry is (nil, false, err) so the farm can count it
// and recompute. Put must be atomic with respect to concurrent readers in
// any process. Reports passed to Put are shared and must not be mutated.
type Store interface {
	Get(key string) (*cpelide.Report, bool, error)
	Put(key string, rep *cpelide.Report) error
}
