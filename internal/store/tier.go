package store

import "susc/internal/hash"

// This file is the one read-through over the store. Every record kind
// that persists a verdict-shaped value — compliance verdicts
// (internal/memo), plan and network reports and audit flows
// (internal/verify), lint findings (internal/lint) — reads and writes
// through Lookup, File and Fill with a Codec of its own, so the rule that
// a result describing one run is never filed has one gate, and the
// singleflight and the uncounted re-read have one user.

// A Codec is the store form of one record kind: how its values encode
// and decode, and which of them may be filed. A value that describes one
// run's limits rather than its cone's content (a budget cutoff, an
// isolated panic, an environmental error) is not persistable: File never
// writes it, and a resident record decoding to one reads as a miss.
type Codec[T any] struct {
	Kind        Kind
	Encode      func(T) ([]byte, error)
	Decode      func([]byte) (T, error)
	Persistable func(T) bool
}

// read decodes a record read under the codec's kind: a record that
// fails to decode, or decodes to a value Persistable rejects, is a miss.
func (c Codec[T]) read(raw []byte, ok bool) (T, bool) {
	var zero T
	if !ok {
		return zero, false
	}
	v, err := c.Decode(raw)
	if err != nil || !c.Persistable(v) {
		return zero, false
	}
	return v, true
}

// Lookup returns the value filed under (c.Kind, sum), counting the read
// as a hit or a miss. A nil store holds nothing.
func Lookup[T any](s *Store, c Codec[T], sum hash.Sum) (T, bool) {
	if s == nil {
		var zero T
		return zero, false
	}
	return c.read(s.Get(c.Kind, sum))
}

// File writes v under (c.Kind, sum) when it is persistable, and nothing
// otherwise. A nil store takes nothing.
func File[T any](s *Store, c Codec[T], sum hash.Sum, v T) error {
	if s == nil || !c.Persistable(v) {
		return nil
	}
	enc, err := c.Encode(v)
	if err != nil {
		return err
	}
	return s.Put(c.Kind, sum, enc)
}

// Fill is the read-through of one record: the value filed under
// (c.Kind, key()), else compute's value, filed when persistable. With a
// nil store it is compute, and key is never called. A counted miss
// computes under the singleflight on (kind, sum), re-reading the record
// uncounted first in case a concurrent caller filed it meanwhile, so
// concurrent callers compute a cone once and share its value. hit
// reports the counted read. A compute error comes back as is, and a
// write error beside the computed value.
func Fill[T any](s *Store, c Codec[T], key func() hash.Sum,
	compute func() (T, error)) (v T, hit bool, err error) {

	if s == nil {
		v, err = compute()
		return v, false, err
	}
	sum := key()
	if v, ok := Lookup(s, c, sum); ok {
		return v, true, nil
	}
	got, err := s.once(c.Kind, sum, func() (any, error) {
		if v, ok := c.read(s.peek(c.Kind, sum)); ok {
			return v, nil
		}
		v, err := compute()
		if err != nil {
			return v, err
		}
		return v, File(s, c, sum, v)
	})
	// A flight whose leader panicked carries no value.
	v, _ = got.(T)
	return v, false, err
}
