package job

// JournalErrors reports how many journal writes have failed since the
// scheduler started — the scheduler survives every one of them, so the
// count is the only trace short of the log.
func (s *Scheduler) JournalErrors() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalErrs
}

// Live returns the number of live (queued or running) jobs across all
// owners.
func (s *Scheduler) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveTotal
}
