package hashx

// Tabulation implements simple tabulation hashing: the 8 bytes of a
// 64-bit key each index a table of random 64-bit words, which are
// XORed together. Tabulation hashing is only 3-wise independent, yet
// Pătraşcu and Thorup showed it behaves like full independence for the
// hashing-based sketches surveyed in the paper (linear probing, Bloom
// filters, Count-Min), making it a strong fast alternative to
// polynomial families.
type Tabulation struct {
	table [8][256]uint64
}

// NewTabulation fills the tables deterministically from seed via the
// SplitMix64 sequence.
func NewTabulation(seed uint64) *Tabulation {
	t := &Tabulation{}
	state := seed
	for i := 0; i < 8; i++ {
		for j := 0; j < 256; j++ {
			state += 0x9e3779b97f4a7c15
			t.table[i][j] = Mix64(state)
		}
	}
	return t
}

// Hash maps a 64-bit key to a 64-bit value.
func (t *Tabulation) Hash(x uint64) uint64 {
	return t.table[0][byte(x)] ^
		t.table[1][byte(x>>8)] ^
		t.table[2][byte(x>>16)] ^
		t.table[3][byte(x>>24)] ^
		t.table[4][byte(x>>32)] ^
		t.table[5][byte(x>>40)] ^
		t.table[6][byte(x>>48)] ^
		t.table[7][byte(x>>56)]
}
