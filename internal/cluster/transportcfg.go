package cluster

import (
	"flag"
	"fmt"
	"time"

	"backtrace/internal/wire"
)

// TransportConfig is the transport knob set every command-line tool
// (cmd/dgcnode, cmd/dgcsim, cmd/dgcbench) exposes with the same flag names
// and defaults, so a codec or batching setting reads identically across the
// harness. Register the flags with RegisterFlags, then apply them with
// Apply (cluster-based tools) or ResolveCodec (tools that build transports
// directly).
type TransportConfig struct {
	// Codec names the wire codec: "binary" (the only framing codec) or
	// "none" (skip serialization; in-process transports only).
	Codec string
	// Batch is the session layer's link batch size (transport.Reliable's
	// LinkBatch); 0 disables batching. Stepped worlds (dgcsim -explore and
	// -replay, dgcbench) reject it: see CheckStepped.
	Batch int
	// FlushInterval is the batcher flush cadence; 0 takes the default
	// (1ms).
	FlushInterval time.Duration
}

// RegisterFlags installs the shared -codec, -batch, and -flush-interval
// flags on fs (the default flag set when fs is nil).
func (tc *TransportConfig) RegisterFlags(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&tc.Codec, "codec", "binary", "wire codec: binary, or none (skip serialization; in-process transports only)")
	fs.IntVar(&tc.Batch, "batch", 0, "session-layer link batch size (0 = no batching; >0 implies the reliable session layer; not accepted by stepped runs)")
	fs.DurationVar(&tc.FlushInterval, "flush-interval", 0, "batcher flush cadence (0 = default 1ms; needs -batch)")
}

// ResolveCodec validates and resolves the codec name. The name "none"
// resolves to a nil codec: in-process transports then hand messages over
// without serializing (the fast path; meaningless for TCP, which always
// frames).
func (tc TransportConfig) ResolveCodec() (wire.Codec, error) {
	if tc.Codec == "none" {
		return nil, nil
	}
	return wire.ByName(tc.Codec)
}

// CheckStepped rejects the batching flags for a stepped world (the model
// checker, the experiment tables), which has no session layer to batch in.
func (tc TransportConfig) CheckStepped() error {
	if tc.Batch > 0 || tc.FlushInterval > 0 {
		return fmt.Errorf("stepped worlds do not model the session-layer batcher yet, so -batch and " +
			"-flush-interval are not accepted (ROADMAP.md: put the deployed stack under the model checker)")
	}
	return nil
}

// Apply validates the config and writes it into cluster options.
func (tc TransportConfig) Apply(opts *Options) error {
	codec, err := tc.ResolveCodec()
	if err != nil {
		return err
	}
	if tc.Batch < 0 {
		return fmt.Errorf("transport config: -batch must be >= 0, got %d", tc.Batch)
	}
	if tc.FlushInterval < 0 {
		return fmt.Errorf("transport config: -flush-interval must be >= 0, got %v", tc.FlushInterval)
	}
	if tc.FlushInterval > 0 && tc.Batch == 0 {
		return fmt.Errorf("transport config: -flush-interval needs -batch > 0")
	}
	opts.Codec = codec
	opts.Batch = tc.Batch
	opts.FlushInterval = tc.FlushInterval
	return nil
}
