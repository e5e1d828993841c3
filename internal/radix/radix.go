// Package radix is the program's one sort of fixed-width keys: a stable
// least-significant-digit radix sort of uint64 keys that carries an int32 id
// with each key. ORDER BY sorts its key words with it (value.OrderWord for a
// FLOAT), the M-SWG's sliced-W1 term sorts each projected batch with it, and
// the nearest-anchor index its key column.
package radix

// Sort stable-sorts keys ascending and gives ids the same permutation: equal
// keys keep their input order. keyBuf and idBuf are its second buffers, at
// least len(keys) long, owned by the caller and clobbered. It allocates
// nothing.
//
// One counting pass takes the histograms of all eight bytes, then each byte
// position, least significant first, is one scatter pass — except a position
// on which every key has the same byte, which is skipped (small integers take
// one or two passes). The sorted keys and ids end in keys and ids.
//
// stop, when not nil, is asked before each scatter pass whether to give up;
// if it says so, Sort returns at once and leaves keys and ids in no useful
// order. That is how a cancelled ORDER BY stops between passes.
func Sort(keys, keyBuf []uint64, ids, idBuf []int32, stop func() bool) {
	n := len(keys)
	if n < 2 {
		return
	}
	ids, keyBuf, idBuf = ids[:n], keyBuf[:n], idBuf[:n]
	var count [8][256]int32
	for _, k := range keys {
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	src, dst := keys, keyBuf
	srcID, dstID := ids, idBuf
	for d := range count {
		c, shift := &count[d], uint(8*d)
		if c[byte(src[0]>>shift)] == int32(n) {
			continue
		}
		if stop != nil && stop() {
			return
		}
		var sum int32
		for b, m := range c {
			c[b], sum = sum, sum+m
		}
		for j, k := range src {
			b := byte(k >> shift)
			p := c[b]
			c[b]++
			dst[p], dstID[p] = k, srcID[j]
		}
		src, dst = dst, src
		srcID, dstID = dstID, srcID
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(ids, srcID)
	}
}
