package frequency

// Majority is the Boyer–Moore majority-vote algorithm (1981), the
// one-counter ancestor of Misra–Gries: it finds the item occupying a
// strict majority of the stream, if one exists, in O(1) space. When no
// majority exists the candidate is arbitrary, so callers verify with a
// second pass (or accept the Misra–Gries guarantee instead).
type Majority struct {
	candidate string
	count     uint64
	n         uint64
}

// NewMajority returns an empty majority voter.
func NewMajority() *Majority { return &Majority{} }

// Add registers one occurrence of item.
func (m *Majority) Add(item string) {
	m.n++
	switch {
	case m.count == 0:
		m.candidate, m.count = item, 1
	case m.candidate == item:
		m.count++
	default:
		m.count--
	}
}

// Update implements core.Updater.
func (m *Majority) Update(item []byte) { m.Add(string(item)) }

// Candidate returns the current majority candidate and whether any
// items have been seen. If a strict majority item exists in the stream,
// it is guaranteed to be the candidate.
func (m *Majority) Candidate() (string, bool) {
	return m.candidate, m.n > 0
}
