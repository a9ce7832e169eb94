package vm

import "wow/internal/metrics"

// The VM's counters: one index per name, a cell each in VM.Stats
// (Counters.New), counted with Stats.Add.
const (
	cVMStarted = iota
	cVMMigrations
	cVMMigrationsLive
	cVMMigrated
	cJobQueued
	cJobCompleted
	numCounters
)

// Counters is the VM's counter family.
var Counters = metrics.NewFamily(counterNames[:]...)

var counterNames = [numCounters]string{
	cVMStarted:        "vm.started",
	cVMMigrations:     "vm.migrations",
	cVMMigrationsLive: "vm.migrations_live",
	cVMMigrated:       "vm.migrated",
	cJobQueued:        "job.queued",
	cJobCompleted:     "job.completed",
}
