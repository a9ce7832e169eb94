package brunet

import (
	"testing"

	"wow/internal/sim"
)

// TestConfigZeroValuesTakeDefaults: a zero Config must resolve to exactly
// the paper defaults.
func TestConfigZeroValuesTakeDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	d := DefaultConfig()
	if c.FarCount != d.FarCount {
		t.Errorf("topology defaults wrong: %+v", c)
	}
	if c.PingInterval != d.PingInterval || c.PingTimeout != d.PingTimeout || c.PingRetries != d.PingRetries {
		t.Errorf("keepalive defaults wrong: %+v", c)
	}
	if c.LinkResend != d.LinkResend || c.LinkRetries != d.LinkRetries {
		t.Errorf("linker defaults wrong: %+v", c)
	}
	if c.RelinkBase != d.RelinkBase {
		t.Errorf("recovery defaults wrong: %+v", c)
	}
	if c.Transport != "udp" {
		t.Errorf("transport default = %q", c.Transport)
	}
}

// TestConfigExplicitValuesPreserved: positive settings pass through
// untouched.
func TestConfigExplicitValuesPreserved(t *testing.T) {
	c := Config{
		FarCount:     3,
		PingInterval: 7 * sim.Second,
		RelinkBase:   2 * sim.Second,
		Transport:    "tcp",
	}
	c.fillDefaults()
	if c.FarCount != 3 || c.PingInterval != 7*sim.Second || c.RelinkBase != 2*sim.Second || c.Transport != "tcp" {
		t.Errorf("explicit values clobbered: %+v", c)
	}
}

func nodeName(i int) string { return string(rune('a'+i)) + "-node" }
