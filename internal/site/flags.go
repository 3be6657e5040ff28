package site

import "flag"

// RegisterInboxFlag binds -inbox, the mailbox executor's inbox capacity,
// into c.InboxSize. A nil fs means the default flag set.
func (c *Config) RegisterInboxFlag(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.IntVar(&c.InboxSize, "inbox", 0, "mailbox executor inbox capacity (0 = apply messages on the delivery thread)")
}
