package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"github.com/seldel/seldel"
)

// payloadBytes is the size of every data entry's payload.
const payloadBytes = 256

// userCount is how many distinct owners sign the data entries.
const userCount = 64

// people is the registry every workload validates against, with the
// user keys that sign its entries.
type people struct {
	reg   *seldel.Registry
	users []*seldel.KeyPair
	seed  int64
}

// newPeople derives userCount user keys from the seed and registers
// them.
func newPeople(seed int64) (*people, error) {
	p := &people{reg: seldel.NewRegistry(), seed: seed}
	for i := range userCount {
		kp := seldel.DeterministicKey(fmt.Sprintf("user-%02d", i), fmt.Sprintf("perfbench-%d", seed))
		if err := p.reg.RegisterKey(kp, seldel.RoleUser); err != nil {
			return nil, err
		}
		p.users = append(p.users, kp)
	}
	return p, nil
}

func (p *people) user(i int) *seldel.KeyPair { return p.users[i%len(p.users)] }

// payload derives entry i's payload in namespace ns from the seed: the
// same seed always yields the same bytes.
func (p *people) payload(ns string, i int) []byte {
	h := fnv.New64a()
	_, _ = io.WriteString(h, ns)
	src := rand.NewPCG(uint64(p.seed), h.Sum64()^uint64(i)<<20)
	out := make([]byte, payloadBytes)
	copy(out, fmt.Sprintf("%s/%d/", ns, i))
	for j := 16; j+8 <= len(out); j += 8 {
		v := src.Uint64()
		for k := range 8 {
			out[j+k] = byte(v >> (8 * k))
		}
	}
	return out
}

// dataEntries signs n data entries of namespace ns, entry i owned by
// user i mod userCount. Signing runs on every core; the result depends
// only on the seed, ns and n.
func (p *people) dataEntries(ns string, n int) []*seldel.Entry {
	out := make([]*seldel.Entry, n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				kp := p.user(i)
				out[i] = seldel.NewData(kp.Name(), p.payload(ns, i)).Sign(kp)
			}
		}()
	}
	wg.Wait()
	return out
}

// deletion signs owner's deletion request for target.
func (p *people) deletion(owner string, target seldel.Ref) (*seldel.Entry, error) {
	for _, kp := range p.users {
		if kp.Name() == owner {
			return seldel.NewDeletion(owner, target).Sign(kp), nil
		}
	}
	return nil, fmt.Errorf("no key for owner %q", owner)
}

// copyDir copies the directory tree of regular files under src into
// dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
