// Package hash computes stable, content-addressed identities for the
// declarations the verifier operates on: history expressions, policy
// instances, plans and whole source files. A Sum is a SHA-256 digest of a
// canonical, length-prefixed serialisation, so it is byte-identical across
// runs, platforms and process restarts — the property the persistent
// verdict store (internal/store) needs to reuse verdicts between `susc`
// invocations.
//
// The canonical forms are the ones the in-memory layers already maintain:
// hexpr.Expr.Key() is canonical up to structural congruence (PR 1 interns
// on it), policy.Instance.ID() is canonical in the binding, and the
// automaton template serialises field by field. Every variable-length part
// is length-prefixed, so distinct field sequences can never collide by
// concatenation.
//
// Two digests deliberately do NOT depend on the engine that computes the
// verdict: engine identity is carried once, in the store header, through
// Fingerprint — bumping EngineVersion invalidates a store wholesale
// instead of silently mixing verdicts from incompatible engines.
package hash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"

	"susc/internal/hexpr"
	"susc/internal/policy"
)

// Size is the byte length of a Sum.
const Size = sha256.Size

// Sum is a content hash: the identity of a declaration (plus, for
// verification artifacts, its dependency cone) in the persistent store.
type Sum [Size]byte

// String renders the sum as lower-case hex.
func (s Sum) String() string { return hex.EncodeToString(s[:]) }

// EngineVersion names the semantics of the verdict-producing engines.
// Bump it whenever a change could alter any persisted verdict, witness or
// report rendering — the store invalidates wholesale on a mismatch, which
// is always sound and never silently stale.
const EngineVersion = "susc-engine-pr7-v1"

// Fingerprint is the engine fingerprint embedded in store headers.
func Fingerprint() Sum {
	h := New()
	h.Str("engine")
	h.Str(EngineVersion)
	return h.Sum()
}

// Hasher accumulates a canonical serialisation. All writes are framed
// (length- or tag-prefixed), so the digest of a field sequence is
// unambiguous.
type Hasher struct {
	w   io.Writer
	h   hash.Hash // nil while recording a Frame
	buf [binary.MaxVarintLen64]byte
	// str stages strings for the writer, which takes bytes: converting
	// each one would allocate a copy per write.
	str []byte
}

// New returns an empty Hasher.
func New() *Hasher {
	d := sha256.New()
	return &Hasher{w: d, h: d}
}

// Str writes a length-prefixed string.
func (h *Hasher) Str(s string) {
	h.Int(len(s))
	h.str = append(h.str[:0], s...)
	h.w.Write(h.str)
}

// Bytes writes a length-prefixed byte slice.
func (h *Hasher) Bytes(b []byte) {
	h.Int(len(b))
	h.w.Write(b)
}

// Int writes an integer as a varint (stable across word sizes).
func (h *Hasher) Int(n int) {
	k := binary.PutVarint(h.buf[:], int64(n))
	h.w.Write(h.buf[:k])
}

// Raw writes bytes without framing. It replays what Frame recorded: the
// recorded bytes are already framed, so a digest fed Raw(Frame(f)) equals
// one fed f directly.
func (h *Hasher) Raw(b []byte) { h.w.Write(b) }

// Frame returns the bytes write feeds a Hasher. A caller digesting many
// composites that share parts renders each part once and replays it with
// Raw.
func Frame(write func(*Hasher)) []byte {
	var rec recorder
	write(&Hasher{w: &rec})
	return rec
}

// recorder is the writer of a recording Hasher.
type recorder []byte

func (r *recorder) Write(b []byte) (int, error) {
	*r = append(*r, b...)
	return len(b), nil
}

// Reset empties the digest, so one Hasher can key many artifacts.
func (h *Hasher) Reset() { h.h.Reset() }

// Sum finalises the digest. The Hasher must not be written to afterwards,
// until Reset.
func (h *Hasher) Sum() Sum {
	var s Sum
	h.h.Sum(s[:0])
	return s
}

// Expr is the content hash of a history expression: a digest of its
// canonical Key form.
func Expr(e hexpr.Expr) Sum {
	h := New()
	h.Str("expr")
	h.Str(e.Key())
	return h.Sum()
}

// Pair is the content hash of an ordered expression pair — the key of a
// compliance verdict H_client ⊢ H_server. Compliance depends only on the
// two canonical forms (the communication projections derive from them), so
// the pair digest is the whole dependency cone of the verdict.
func Pair(client, server hexpr.Expr) Sum {
	h := New()
	h.Str("compliance")
	h.Str(client.Key())
	h.Str(server.Key())
	return h.Sum()
}

// Policy is the content hash of an instantiated usage automaton: the full
// template structure (states, start, finals, edges with their guards)
// plus the canonical instance identifier, which carries the binding. Two
// instances hash equal iff they accept the same traces for structural
// reasons — renaming a state or retargeting an edge changes the digest.
func Policy(in *policy.Instance) Sum {
	h := New()
	h.Str("policy")
	WritePolicy(h, in)
	return h.Sum()
}

// WritePolicy serialises the instance into an ongoing digest; callers
// hashing composite artifacts (dependency cones) embed policies with it.
func WritePolicy(h *Hasher, in *policy.Instance) {
	h.Str(string(in.ID()))
	a := in.Template()
	h.Str(a.Name)
	h.Int(len(a.Params))
	for _, p := range a.Params {
		h.Str(p.Name)
		h.Int(int(p.Kind))
	}
	h.Int(len(a.States))
	for _, s := range a.States {
		h.Str(s)
	}
	h.Str(a.Start)
	h.Int(len(a.Finals))
	for _, f := range a.Finals {
		h.Str(f)
	}
	h.Int(len(a.Edges))
	for _, e := range a.Edges {
		h.Str(e.From)
		h.Str(e.To)
		h.Str(e.EventName)
		h.Int(len(e.Guards))
		for _, g := range e.Guards {
			h.Str(g.String())
		}
	}
}

// File is the content hash of a whole source file together with the
// analysis configuration named by the extras (analyzer set, severity
// floor, …): the key of a persisted lint run.
func File(src []byte, extras ...string) Sum {
	h := New()
	h.Str("file")
	h.Bytes(src)
	h.Int(len(extras))
	for _, x := range extras {
		h.Str(x)
	}
	return h.Sum()
}
