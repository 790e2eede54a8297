package optimizer

import "ulixes/internal/cq"

// Arena and OptimizeIn let the external tests choose the arena a search
// runs in, so that one arena can be seen to serve many searches in turn.
type Arena = arena

func (o *Optimizer) OptimizeIn(q *cq.Query, a *Arena) (*Result, error) { return o.optimize(q, a) }
