package chain

// SummaryPlans returns how many times the chain has planned a summary
// block, so tests outside the package can count planning work.
func (c *Chain) SummaryPlans() uint64 { return c.plans.Load() }
