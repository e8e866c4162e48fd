package core

import (
	"bytes"
	"math/rand"
	"testing"

	"arcc/internal/pagetable"
)

// TestShadowModelRandomOperations drives the controller with thousands of
// random operations (writes, reads, pair writes, upgrades, relaxations,
// strong upgrades) against a simple map-based shadow model. With no faults
// injected, every read must return exactly what the shadow holds and never
// report an error, across every mode transition.
func TestShadowModelRandomOperations(t *testing.T) {
	for _, channels := range []int{2, 4} {
		channels := channels
		t.Run(map[int]string{2: "two-channel", 4: "four-channel"}[channels], func(t *testing.T) {
			cfg := Config{Pages: 16, Channels: channels, RanksPerChannel: 2, BanksPerDevice: 4, RowsPerBank: 2}
			if rand.New(rand.NewSource(int64(channels))).Intn(2) == 0 {
				cfg.Upgrade = UpgradeSparing
			}
			c := New(cfg)
			c.RelaxAll()
			rng := rand.New(rand.NewSource(42))

			shadow := make(map[[2]int][]byte) // (page, line) -> 64 B
			readShadow := func(page, line int) []byte {
				if d, ok := shadow[[2]int{page, line}]; ok {
					return d
				}
				return make([]byte, LineBytes)
			}

			for op := 0; op < 4000; op++ {
				page := rng.Intn(cfg.Pages)
				line := rng.Intn(LinesPerPage)
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // write line
					data := make([]byte, LineBytes)
					rng.Read(data)
					if err := c.WriteLine(page, line, data); err != nil {
						t.Fatalf("op %d: write: %v", op, err)
					}
					shadow[[2]int{page, line}] = data
				case 4, 5, 6, 7: // read line
					got, err := c.ReadLine(page, line)
					if err != nil {
						t.Fatalf("op %d: read: %v", op, err)
					}
					if !bytes.Equal(got, readShadow(page, line)) {
						t.Fatalf("op %d: page %d line %d diverged from shadow (mode %v)",
							op, page, line, c.PageMode(page))
					}
				case 8: // mode transition up
					switch c.PageMode(page) {
					case pagetable.Relaxed:
						if err := c.UpgradePage(page); err != nil {
							t.Fatalf("op %d: upgrade: %v", op, err)
						}
					case pagetable.Upgraded:
						if c.SupportsStrongUpgrade() {
							if err := c.UpgradePageToStrong(page); err != nil {
								t.Fatalf("op %d: strong upgrade: %v", op, err)
							}
						}
					}
				case 9: // pair write or relax
					if c.PageMode(page) == pagetable.Upgraded {
						if rng.Intn(2) == 0 {
							pair := rng.Intn(LinesPerPage / 2)
							data := make([]byte, 2*LineBytes)
							rng.Read(data)
							for half := 0; half < 2; half++ {
								if err := c.WriteLine(page, 2*pair+half, data[half*LineBytes:(half+1)*LineBytes]); err != nil {
									t.Fatalf("op %d: pair write: %v", op, err)
								}
							}
							shadow[[2]int{page, 2 * pair}] = data[:LineBytes:LineBytes]
							shadow[[2]int{page, 2*pair + 1}] = data[LineBytes:]
						} else {
							if err := c.RelaxPage(page); err != nil {
								t.Fatalf("op %d: relax: %v", op, err)
							}
						}
					}
				}
			}

			// Final sweep: every line in every page agrees with the shadow.
			for page := 0; page < cfg.Pages; page++ {
				for line := 0; line < LinesPerPage; line++ {
					got, err := c.ReadLine(page, line)
					if err != nil {
						t.Fatalf("final sweep: page %d line %d: %v", page, line, err)
					}
					if !bytes.Equal(got, readShadow(page, line)) {
						t.Fatalf("final sweep: page %d line %d diverged (mode %v)",
							page, line, c.PageMode(page))
					}
				}
			}
			if c.Stats().DUEs != 0 || c.Stats().Corrected != 0 {
				t.Fatalf("fault-free run produced corrections (%d) or DUEs (%d)",
					c.Stats().Corrected, c.Stats().DUEs)
			}
		})
	}
}
