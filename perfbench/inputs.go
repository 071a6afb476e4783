package main

import "math/rand"

// deck deals instance indices in seeded rounds: every round is a fresh
// permutation of all n indices, so any run of whole rounds carries each
// instance equally often and only the order depends on the seed.
type deck struct {
	rng   *rand.Rand
	order []int
	pos   int
}

func newDeck(n int, rng *rand.Rand) *deck {
	return &deck{rng: rng, order: make([]int, n), pos: n}
}

func (d *deck) next() int {
	if d.pos == len(d.order) {
		for i := range d.order {
			d.order[i] = i
		}
		d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.pos = 0
	}
	i := d.order[d.pos]
	d.pos++
	return i
}

// poolBytes is the size of the seeded byte pool every payload and send
// source is cut from: twice the footprint cap, so a seeded offset can
// place any capped source window inside it.
const poolBytes = 2 * appFootprintCap

// fillSeeded fills buf with a splitmix64 stream derived from seed.
func fillSeeded(seed int64, buf []byte) {
	x := uint64(seed)
	for i := 0; i < len(buf); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8 && i+j < len(buf); j++ {
			buf[i+j] = byte(z >> (8 * j))
		}
	}
}

// inputs is the seeded input generator of one run: the byte pool plus
// the random stream that deals instances and pool offsets.
type inputs struct {
	rng  *rand.Rand
	pool []byte
}

func newInputs(seed int64) *inputs {
	in := &inputs{rng: rand.New(rand.NewSource(seed)), pool: make([]byte, poolBytes)}
	fillSeeded(seed, in.pool)
	return in
}

// window returns a seeded n-byte slice of the pool.
func (in *inputs) window(n int64) []byte {
	off := in.rng.Int63n(int64(len(in.pool)) - n + 1)
	return in.pool[off : off+n : off+n]
}
