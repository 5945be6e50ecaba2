package block

import (
	"errors"
	"fmt"

	"github.com/seldel/seldel/internal/codec"
)

// Kind is the entry kind discriminator.
type Kind uint8

const (
	// KindData is an ordinary signed data record ("D … K … S …" in the
	// paper's console output).
	KindData Kind = iota + 1
	// KindDeletion is a deletion request referencing an earlier entry by
	// (block number, entry number) (§IV-D).
	KindDeletion
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindDeletion:
		return "delete"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool { return k == KindData || k == KindDeletion }

// Ref addresses a single entry by block number α and entry number within
// that block. References stay valid after the entry migrates into a
// summary block, because carried entries keep their origin coordinates
// (Fig. 4).
type Ref struct {
	Block uint64
	Entry uint32
}

// String renders the reference as "α/e".
func (r Ref) String() string { return fmt.Sprintf("%d/%d", r.Block, r.Entry) }

// IsZero reports whether the reference is unset.
func (r Ref) IsZero() bool { return r == Ref{} }

// CoSignature is an approval by a dependent party for a deletion request
// (§IV-D.2: "a deletion request of such a chain part … can be approved by
// the signatures of all dependent parties").
type CoSignature struct {
	Name      string
	Signature []byte
}

// Entry is one record inside a block. Exactly one kind is active:
//
//   - KindData: Payload (D), Owner (K), Signature (S), optional expiry
//     deadlines for temporary entries (§IV-D.4), and optional DependsOn
//     references for semantic cohesion (§IV-D.2).
//   - KindDeletion: Target, Owner (requester), Signature, and optional
//     CoSigners from dependent parties.
type Entry struct {
	Kind Kind

	// Payload is the data record (canonical schema.Record encoding or
	// opaque application bytes). Data entries only.
	Payload []byte
	// Owner is the submitting participant (K), or the requester for a
	// deletion entry.
	Owner string
	// Signature is Owner's Ed25519 signature over SigningBytes (S).
	Signature []byte

	// ExpireTime is a logical-timestamp deadline τ after which the entry
	// is not carried into summary blocks; 0 means no time expiry.
	ExpireTime uint64
	// ExpireBlock is a block-number deadline α with the same semantics;
	// 0 means no block expiry.
	ExpireBlock uint64

	// DependsOn lists entries this entry semantically depends on.
	DependsOn []Ref

	// Target is the entry to delete (deletion entries only).
	Target Ref
	// CoSigners hold dependent-party approvals (deletion entries only).
	CoSigners []CoSignature
}

// Errors returned by entry validation and decoding.
var (
	ErrBadEntry  = errors.New("block: malformed entry")
	ErrBadKind   = errors.New("block: invalid entry kind")
	ErrDecode    = errors.New("block: decode failed")
	ErrNoOwner   = errors.New("block: entry has no owner")
	ErrUnsigned  = errors.New("block: entry is unsigned")
	ErrBadTarget = errors.New("block: deletion entry has no target")
)

// NewData constructs an unsigned data entry.
func NewData(owner string, payload []byte) *Entry {
	return &Entry{Kind: KindData, Owner: owner, Payload: payload}
}

// NewTemporary constructs an unsigned temporary data entry (§IV-D.4) that
// expires at logical time expireTime and/or block expireBlock (0 disables
// the respective deadline).
func NewTemporary(owner string, payload []byte, expireTime, expireBlock uint64) *Entry {
	return &Entry{
		Kind:        KindData,
		Owner:       owner,
		Payload:     payload,
		ExpireTime:  expireTime,
		ExpireBlock: expireBlock,
	}
}

// NewDeletion constructs an unsigned deletion request by requester for the
// entry at target.
func NewDeletion(requester string, target Ref) *Entry {
	return &Entry{Kind: KindDeletion, Owner: requester, Target: target}
}

// WithDependsOn records semantic-cohesion dependencies and returns e.
func (e *Entry) WithDependsOn(refs ...Ref) *Entry {
	e.DependsOn = append(e.DependsOn, refs...)
	return e
}

// signingDomain domain-separates entry signatures from any other use of
// the keys.
const signingDomain = "seldel/entry/v1"

// SigningBytes returns the canonical bytes signed by the entry owner:
// everything except Signature and CoSigners. The capacity covers every
// fixed field plus the variable ones, so the buffer is allocated once
// and never grows — this runs twice per entry on the hot path (mempool
// warm, then sealing validation).
func (e *Entry) SigningBytes() []byte {
	enc := codec.NewEncoder(96 + len(e.Payload) + len(e.Owner) + 12*len(e.DependsOn))
	enc.String(signingDomain)
	enc.Byte(byte(e.Kind))
	enc.Bytes(e.Payload)
	enc.String(e.Owner)
	enc.Uint64(e.ExpireTime)
	enc.Uint64(e.ExpireBlock)
	enc.Uint32(uint32(len(e.DependsOn)))
	for _, r := range e.DependsOn {
		enc.Uint64(r.Block)
		enc.Uint32(r.Entry)
	}
	enc.Uint64(e.Target.Block)
	enc.Uint32(e.Target.Entry)
	return enc.Data()
}

// CoSigningBytes returns the canonical bytes a dependent party signs to
// approve the deletion of target.
func CoSigningBytes(target Ref) []byte {
	enc := codec.NewEncoder(32)
	enc.String("seldel/cosign/v1")
	enc.Uint64(target.Block)
	enc.Uint32(target.Entry)
	return enc.Data()
}

// Signer signs messages on behalf of a named participant. Implemented by
// identity.KeyPair.
type Signer interface {
	Name() string
	Sign(msg []byte) []byte
}

// Sign sets Owner to the signer's name (if unset) and fills Signature.
func (e *Entry) Sign(s Signer) *Entry {
	if e.Owner == "" {
		e.Owner = s.Name()
	}
	e.Signature = s.Sign(e.SigningBytes())
	return e
}

// AddCoSignature appends a dependent-party approval for a deletion entry.
func (e *Entry) AddCoSignature(s Signer) *Entry {
	e.CoSigners = append(e.CoSigners, CoSignature{
		Name:      s.Name(),
		Signature: s.Sign(CoSigningBytes(e.Target)),
	})
	return e
}

// CheckShape validates kind-specific structural invariants (not
// signatures; signature checks need a registry and happen at the chain
// layer).
func (e *Entry) CheckShape() error {
	if !e.Kind.Valid() {
		return fmt.Errorf("%w: %d", ErrBadKind, e.Kind)
	}
	if e.Owner == "" {
		return ErrNoOwner
	}
	if len(e.Signature) == 0 {
		return ErrUnsigned
	}
	switch e.Kind {
	case KindData:
		if !e.Target.IsZero() {
			return fmt.Errorf("%w: data entry carries a deletion target", ErrBadEntry)
		}
		if len(e.CoSigners) != 0 {
			return fmt.Errorf("%w: data entry carries co-signatures", ErrBadEntry)
		}
	case KindDeletion:
		if e.Target.IsZero() {
			return ErrBadTarget
		}
		if len(e.Payload) != 0 {
			return fmt.Errorf("%w: deletion entry carries a payload", ErrBadEntry)
		}
		if e.ExpireTime != 0 || e.ExpireBlock != 0 {
			return fmt.Errorf("%w: deletion entry carries expiry deadlines", ErrBadEntry)
		}
		if len(e.DependsOn) != 0 {
			return fmt.Errorf("%w: deletion entry carries dependencies", ErrBadEntry)
		}
	}
	return nil
}

// IsTemporary reports whether the entry has any expiry deadline (§IV-D.4).
func (e *Entry) IsTemporary() bool { return e.ExpireTime != 0 || e.ExpireBlock != 0 }

// ExpiredAt reports whether the entry's deadlines have passed at the given
// logical time and block number.
func (e *Entry) ExpiredAt(now uint64, blockNum uint64) bool {
	if e.ExpireTime != 0 && now >= e.ExpireTime {
		return true
	}
	if e.ExpireBlock != 0 && blockNum >= e.ExpireBlock {
		return true
	}
	return false
}

// Encode returns the full canonical encoding including signatures.
func (e *Entry) Encode() []byte {
	enc := codec.NewEncoder(e.encodedLen())
	e.encodeTo(enc)
	return enc.Data()
}

// AppendEncode appends the full canonical encoding to dst, reusing its
// capacity — the allocation-free form of Encode for callers that hash
// or copy the bytes before dst is reused.
func (e *Entry) AppendEncode(dst []byte) []byte {
	enc := codec.NewEncoderBuf(dst)
	e.encodeTo(enc)
	return enc.Data()
}

// encodedLen is len(e.Encode()), summed from the field lengths of the
// layout encodeTo writes.
func (e *Entry) encodedLen() int {
	n := 1 + 4 + len(e.Payload) + 4 + len(e.Owner) + 4 + len(e.Signature) +
		8 + 8 + 4 + 12*len(e.DependsOn) + 8 + 4 + 4
	for _, cs := range e.CoSigners {
		n += 4 + len(cs.Name) + 4 + len(cs.Signature)
	}
	return n
}

// encodeTo appends the full canonical entry encoding to enc.
func (e *Entry) encodeTo(enc *codec.Encoder) {
	enc.Byte(byte(e.Kind))
	enc.Bytes(e.Payload)
	enc.String(e.Owner)
	enc.Bytes(e.Signature)
	enc.Uint64(e.ExpireTime)
	enc.Uint64(e.ExpireBlock)
	enc.Uint32(uint32(len(e.DependsOn)))
	for _, r := range e.DependsOn {
		enc.Uint64(r.Block)
		enc.Uint32(r.Entry)
	}
	enc.Uint64(e.Target.Block)
	enc.Uint32(e.Target.Entry)
	enc.Uint32(uint32(len(e.CoSigners)))
	for _, cs := range e.CoSigners {
		enc.String(cs.Name)
		enc.Bytes(cs.Signature)
	}
}

// decodeEntryFrom reads one entry from d.
func decodeEntryFrom(d *codec.Decoder) (*Entry, error) {
	e := &Entry{}
	e.Kind = Kind(d.Byte())
	e.Payload = d.Bytes()
	e.Owner = d.ReadString()
	e.Signature = d.Bytes()
	e.ExpireTime = d.Uint64()
	e.ExpireBlock = d.Uint64()
	nDeps := d.Uint32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	if nDeps > maxSliceLen {
		return nil, fmt.Errorf("%w: %d dependencies", ErrDecode, nDeps)
	}
	for i := uint32(0); i < nDeps; i++ {
		var r Ref
		r.Block = d.Uint64()
		r.Entry = d.Uint32()
		e.DependsOn = append(e.DependsOn, r)
	}
	e.Target.Block = d.Uint64()
	e.Target.Entry = d.Uint32()
	nCo := d.Uint32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	if nCo > maxSliceLen {
		return nil, fmt.Errorf("%w: %d co-signatures", ErrDecode, nCo)
	}
	for i := uint32(0); i < nCo; i++ {
		var cs CoSignature
		cs.Name = d.ReadString()
		cs.Signature = d.Bytes()
		e.CoSigners = append(e.CoSigners, cs)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return e, nil
}

// DecodeEntry parses a canonical entry encoding.
func DecodeEntry(data []byte) (*Entry, error) {
	d := codec.NewDecoder(data)
	e, err := decodeEntryFrom(d)
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return e, nil
}

// Hash returns the content hash of the encoded entry.
func (e *Entry) Hash() codec.Hash { return codec.HashBytes(e.Encode()) }

// Clone returns a deep copy of the entry.
func (e *Entry) Clone() *Entry {
	cp := *e
	cp.Payload = append([]byte(nil), e.Payload...)
	cp.Signature = append([]byte(nil), e.Signature...)
	cp.DependsOn = append([]Ref(nil), e.DependsOn...)
	cp.CoSigners = make([]CoSignature, len(e.CoSigners))
	for i, cs := range e.CoSigners {
		cp.CoSigners[i] = CoSignature{
			Name:      cs.Name,
			Signature: append([]byte(nil), cs.Signature...),
		}
	}
	return &cp
}

// maxSliceLen bounds decoded slice lengths to keep corrupted input from
// forcing huge allocations.
const maxSliceLen = 1 << 20
