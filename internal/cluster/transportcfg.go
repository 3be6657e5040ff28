package cluster

import (
	"flag"
	"fmt"
)

// TransportConfig is the transport knob set both command-line tools
// (cmd/dgcnode, cmd/dgcsim) expose with the same flag name and default, so
// the session-layer setting reads identically in each. Which codec frames
// the messages is not a knob: every tool builds its network with
// wire.Binary.
type TransportConfig struct {
	// Reliable interposes the session layer (transport.Reliable: acks,
	// retransmission, LinkBatch frames). Stepped worlds (dgcsim -explore
	// and -replay) reject it: see CheckStepped.
	Reliable bool
}

// RegisterFlags installs the shared -reliable flag on fs (the default flag
// set when fs is nil).
func (tc *TransportConfig) RegisterFlags(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.BoolVar(&tc.Reliable, "reliable", false, "interpose the ack/retransmit session layer, which batches each link's messages into LinkBatch frames (not accepted by stepped runs)")
}

// CheckStepped rejects the session layer for a stepped world (the model
// checker), which does not model it.
func (tc TransportConfig) CheckStepped() error {
	if tc.Reliable {
		return fmt.Errorf("stepped worlds do not model the session layer yet, so -reliable is not " +
			"accepted (ROADMAP.md: put the deployed stack under the model checker)")
	}
	return nil
}
