package scenario

import "ipls/internal/netsim"

// Queries over a parsed plan. Timed windows compile to
// netsim.LossWindows for the discrete-event simulator; the
// iteration-window partitions and the corrupt/late kinds are looked up
// per round by core.ScenarioRunner, which enacts the membership and
// slow/flaky events from Events directly.

// LossWindows compiles the timed-window events for the discrete-event
// simulator: a timed slow scales the node's links by its factor, and a
// timed partition severs (factor 0) the links of every node outside the
// mainline group.
func (p *Plan) LossWindows() []netsim.LossWindow {
	if p == nil {
		return nil
	}
	var out []netsim.LossWindow
	for _, ev := range p.events {
		if !ev.Window.Timed {
			continue
		}
		switch ev.Kind {
		case Slow:
			out = append(out, netsim.LossWindow{
				Node: ev.Node, From: ev.Window.From, To: ev.Window.To, Factor: ev.Factor,
			})
		case Partition:
			for _, g := range ev.Groups[1:] {
				for _, node := range g {
					out = append(out, netsim.LossWindow{
						Node: node, From: ev.Window.From, To: ev.Window.To,
					})
				}
			}
		}
	}
	return out
}

// PartitionWindow is one iteration-window network split: Groups[0] is
// the mainline side, every other group is isolated from it (and from
// each other) for iterations [FromIter, ToIter].
type PartitionWindow struct {
	Groups           [][]string
	FromIter, ToIter int
}

// Isolated returns the nodes cut off from the mainline: the members of
// every group but the first.
func (w PartitionWindow) Isolated() []string {
	var out []string
	for _, g := range w.Groups[1:] {
		out = append(out, g...)
	}
	return out
}

// PartitionWindows returns the iteration-window partitions, for
// core.ScenarioRunner to open (isolate) and close (heal + re-replicate)
// as rounds cross their boundaries.
func (p *Plan) PartitionWindows() []PartitionWindow {
	if p == nil {
		return nil
	}
	var out []PartitionWindow
	for _, ev := range p.events {
		if ev.Kind == Partition && !ev.Window.Timed {
			out = append(out, PartitionWindow{
				Groups: ev.Groups, FromIter: ev.Window.FromIter, ToIter: ev.Window.ToIter,
			})
		}
	}
	return out
}

// CorruptAt returns the trainers whose uploads are tampered at an
// iteration (the Byzantine injection core's BatchVerify fallback must
// catch and quarantine).
func (p *Plan) CorruptAt(iter int) map[string]bool { return p.nodesAt(Corrupt, iter) }

// LateAt returns the trainers that miss t_train at an iteration; their
// deltas arrive after the quorum cut and fold into the next round with
// age-discounted weight.
func (p *Plan) LateAt(iter int) map[string]bool { return p.nodesAt(Late, iter) }

func (p *Plan) nodesAt(kind Kind, iter int) map[string]bool {
	if p == nil {
		return nil
	}
	var out map[string]bool
	for _, ev := range p.events {
		if ev.Kind == kind && ev.Window.ContainsIter(iter) {
			if out == nil {
				out = make(map[string]bool)
			}
			out[ev.Node] = true
		}
	}
	return out
}

// MaxIter returns the highest iteration any iteration-window event
// references (plus the close marker of slow/flaky/partition windows),
// so callers can size runs to cover the whole plan. -1 if the plan has
// no iteration-window events.
func (p *Plan) MaxIter() int {
	max := -1
	if p == nil {
		return max
	}
	for _, ev := range p.events {
		if ev.Window.Timed {
			continue
		}
		last := ev.Window.ToIter
		switch ev.Kind {
		case Slow, Flaky, Partition:
			last++ // the clearing edge lands one iteration later
		}
		if last > max {
			max = last
		}
	}
	return max
}
