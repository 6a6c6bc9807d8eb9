package relation

// ShardOf returns the shard in [0, n) owning the tuple: the inlined FNV-32a
// hash of the value at column pos (its key encoding), modulo n. n <= 1
// always returns 0.
func (t Tuple) ShardOf(pos, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		fnvOffset32 = 2166136261
		fnvPrime32  = 16777619
	)
	var stack [16]byte
	buf := t[pos].appendKey(stack[:0])
	h := uint32(fnvOffset32)
	for _, b := range buf {
		h ^= uint32(b)
		h *= fnvPrime32
	}
	return int(h % uint32(n))
}
