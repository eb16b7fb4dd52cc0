// Package cp is a simulation-critical fixture (its base name is in
// determinism.SimCritical): every determinism rule fires somewhere below,
// next to the idioms the pass must accept.
package cp

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

func clocks() time.Time {
	t := time.Now()   // want `time\.Now in simulation-critical package cp`
	_ = time.Since(t) // want `time\.Since in simulation-critical package cp`
	return t
}

func randoms() int {
	r := rand.New(rand.NewSource(7)) // seeded constructors are fine
	_ = r.Intn(8)                    // methods on an explicit *rand.Rand are fine
	return rand.Intn(8)              // want `global rand\.Intn in simulation-critical package cp`
}

func orderedFromMap(m map[string]int, w *strings.Builder) []string {
	var bad []string
	var s string
	for k := range m {
		bad = append(bad, k) // want `append to "bad" inside map iteration without a later sort`
		s += k               // want `string concatenation onto "s" inside map iteration`
		fmt.Println(k)       // want `fmt\.Println inside map iteration`
		w.WriteString(k)     // want `Builder\.WriteString inside map iteration`
	}

	// The sorted-keys idiom: append inside the range, sort before use.
	var good []string
	for k := range m {
		good = append(good, k)
	}
	sort.Strings(good)

	// Loop-local accumulation cannot leak iteration order.
	for k, v := range m {
		kv := []string{k}
		kv = append(kv, fmt.Sprint(v))
		_ = kv
	}
	_ = s
	return append(bad, good...)
}
