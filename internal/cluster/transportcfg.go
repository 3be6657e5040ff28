package cluster

import (
	"flag"
	"fmt"
	"time"
)

// TransportConfig is the transport knob set both command-line tools
// (cmd/dgcnode, cmd/dgcsim) expose with the same flag names and defaults,
// so a batching setting reads identically in each. Register the flags with
// RegisterFlags, then check them with Validate (Apply, which writes them
// into cluster options, checks them too). Which codec frames the messages
// is not a knob: every tool builds its network with wire.Binary.
type TransportConfig struct {
	// Batch is the session layer's link batch size (transport.Reliable's
	// LinkBatch); 0 disables batching. Stepped worlds (dgcsim -explore and
	// -replay) reject it: see CheckStepped.
	Batch int
	// FlushInterval is the batcher flush cadence; 0 takes the default
	// (1ms).
	FlushInterval time.Duration
}

// RegisterFlags installs the shared -batch and -flush-interval flags on fs
// (the default flag set when fs is nil).
func (tc *TransportConfig) RegisterFlags(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.IntVar(&tc.Batch, "batch", 0, "session-layer link batch size (0 = no batching; >0 implies the reliable session layer; not accepted by stepped runs)")
	fs.DurationVar(&tc.FlushInterval, "flush-interval", 0, "batcher flush cadence (0 = default 1ms; needs -batch)")
}

// CheckStepped rejects the batching flags for a stepped world (the model
// checker), which has no session layer to batch in.
func (tc TransportConfig) CheckStepped() error {
	if tc.Batch != 0 || tc.FlushInterval != 0 {
		return fmt.Errorf("stepped worlds do not model the session-layer batcher yet, so -batch and " +
			"-flush-interval are not accepted (ROADMAP.md: put the deployed stack under the model checker)")
	}
	return nil
}

// Validate rejects a negative batch size or flush interval, and a flush
// interval without batching.
func (tc TransportConfig) Validate() error {
	if tc.Batch < 0 {
		return fmt.Errorf("transport config: -batch must be >= 0, got %d", tc.Batch)
	}
	if tc.FlushInterval < 0 {
		return fmt.Errorf("transport config: -flush-interval must be >= 0, got %v", tc.FlushInterval)
	}
	if tc.FlushInterval > 0 && tc.Batch == 0 {
		return fmt.Errorf("transport config: -flush-interval needs -batch > 0")
	}
	return nil
}

// Apply validates the config and writes it into cluster options.
func (tc TransportConfig) Apply(opts *Options) error {
	if err := tc.Validate(); err != nil {
		return err
	}
	opts.Batch = tc.Batch
	opts.FlushInterval = tc.FlushInterval
	return nil
}
