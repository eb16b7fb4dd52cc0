// Package event holds the simulation clock's unit, Time, and nothing else.
// The global CP steps the clock itself (see internal/cp): it acts only at
// kernel boundaries, so no general event calendar is needed.
package event

// Time is an absolute simulation time in GPU core cycles.
type Time uint64
