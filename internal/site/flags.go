package site

import "flag"

// RegisterFlags binds the trace-scheduler knobs every command-line tool
// exposes with the same names, defaults and help text:
// -max-inflight-traces, -trace-batch and -memoize-live write into c when fs
// is parsed. Tools that run sites as mailbox executors add -inbox with
// RegisterInboxFlag. A nil fs means the default flag set.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.IntVar(&c.MaxInflightTraces, "max-inflight-traces", 0, "cap concurrently initiated back traces per site; excess suspects queue by distance priority (0 = no cap)")
	fs.IntVar(&c.TraceBatch, "trace-batch", 0, "group up to this many overlapping-inset suspects into one multi-suspect back trace (<=1 = one trace per suspect)")
	fs.BoolVar(&c.MemoizeLive, "memoize-live", false, "memoize Live back-trace verdicts per ioref until the next local-trace commit")
}

// RegisterInboxFlag binds -inbox, the mailbox executor's inbox capacity,
// into c.InboxSize. A nil fs means the default flag set.
func (c *Config) RegisterInboxFlag(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.IntVar(&c.InboxSize, "inbox", 0, "mailbox executor inbox capacity (0 = apply messages on the delivery thread)")
}
