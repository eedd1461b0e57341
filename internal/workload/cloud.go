package workload

import (
	"math/rand"
)

// Cloud synthesizes the SK Telecom private-cloud dataset's redundancy
// structure (§2.2: 3.3TB of enterprise VM volumes; Fig. 3: ~21.5% local /
// ~44.8% global dedup at 32K chunks; Table 2: 46.4/44.8/43.7% ideal ratio at
// 16/32/64K chunks). Three redundancy components reproduce those numbers:
//
//   - Intra-object duplication (~20% of slots copy an earlier slot of the
//     same volume — empty FS regions, repeated binaries). These dedupe even
//     under per-OSD local dedup, which is why the cloud's local ratio is
//     ~half its global ratio rather than ~1/16 of it.
//   - Cross-object duplication (~27% of slots come from a shared pool — OS
//     images, common packages). Only global dedup catches these.
//   - Fine-grained duplication (~2% of bytes dedupable only at 16K
//     granularity), giving Table 2's mild ratio decline as chunks grow.
type CloudConfig struct {
	Objects    int
	ObjectSize int64 // per-object bytes (RBD stripe: 4MB)
	SlotSize   int64 // duplication granularity (64K slots, 16K fine units)
	IntraFrac  float64
	CrossFrac  float64
	FineFrac   float64
	Seed       int64
}

func (c *CloudConfig) defaults() {
	if c.Objects <= 0 {
		c.Objects = 12
	}
	if c.ObjectSize <= 0 {
		c.ObjectSize = 4 << 20
	}
	if c.SlotSize <= 0 {
		c.SlotSize = 64 << 10
	}
	if c.IntraFrac <= 0 {
		c.IntraFrac = 0.16
	}
	if c.CrossFrac <= 0 {
		c.CrossFrac = 0.46
	}
	if c.FineFrac <= 0 {
		c.FineFrac = 0.015
	}
}

// CloudGen deterministically materializes the dataset object by object.
type CloudGen struct {
	cfg      CloudConfig
	slotPool *BlockPool // shared 64K slots (cross-object duplication)
	midPool  *BlockPool // shared 32K units (dedupable at <=32K chunks)
	finePool *BlockPool // shared 16K units (dedupable only at 16K chunks)
}

// NewCloudGen creates a generator.
func NewCloudGen(cfg CloudConfig) *CloudGen {
	cfg.defaults()
	return &CloudGen{
		cfg:      cfg,
		slotPool: NewBlockPool(int(cfg.SlotSize), cfg.Seed+17, false),
		midPool:  NewBlockPool(32<<10, cfg.Seed+19, false),
		finePool: NewBlockPool(16<<10, cfg.Seed+23, false),
	}
}

// Config returns the effective configuration.
func (g *CloudGen) Config() CloudConfig { return g.cfg }

// ObjectName returns the dataset's object naming.
func (g *CloudGen) ObjectName(idx int) string {
	return "cloud.vol." + itoa(idx)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	pos := len(b)
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(b[pos:])
}

// ObjectContent materializes object idx's bytes.
func (g *CloudGen) ObjectContent(idx int) []byte {
	cfg := g.cfg
	rng := rand.New(rand.NewSource(cfg.Seed + int64(idx)*7907))
	slots := cfg.ObjectSize / cfg.SlotSize
	out := make([]byte, cfg.ObjectSize)
	// Cross-object pool sized for ~2.2 copies per pool slot across the whole
	// dataset: most duplicates have one or two far-away twins (enterprise
	// volumes sharing OS/package blocks), so per-OSD local dedup rarely sees
	// both copies.
	totalSlots := float64(cfg.Objects) * float64(slots)
	poolSlots := int64(cfg.CrossFrac * totalSlots / 2.2)
	if poolSlots < 1 {
		poolSlots = 1
	}
	for s := int64(0); s < slots; s++ {
		dst := out[s*cfg.SlotSize : (s+1)*cfg.SlotSize]
		dice := rng.Float64()
		switch {
		case s > 0 && dice < cfg.IntraFrac:
			// Copy an earlier slot of the same object (slot-aligned, so it
			// dedupes at every chunk size and under local dedup).
			src := rng.Int63n(s)
			copy(dst, out[src*cfg.SlotSize:(src+1)*cfg.SlotSize])
		case dice < cfg.IntraFrac+cfg.CrossFrac:
			g.slotPool.Block(rng.Int63n(poolSlots), dst)
		case dice < cfg.IntraFrac+cfg.CrossFrac+cfg.FineFrac:
			// Fine-grained: each 16K unit repeats globally, but the 4-unit
			// combination is unique — dedupable only at 16K chunks.
			for u := int64(0); u*16384 < cfg.SlotSize; u++ {
				g.finePool.Block(rng.Int63n(64), dst[u*16384:(u+1)*16384])
			}
		case dice < cfg.IntraFrac+cfg.CrossFrac+2*cfg.FineFrac:
			// Mid-grained: 32K units repeat globally but 64K pairs are
			// unique — dedupable at 16K and 32K chunks, lost at 64K.
			for u := int64(0); u*32768 < cfg.SlotSize; u++ {
				g.midPool.Block(rng.Int63n(64), dst[u*32768:(u+1)*32768])
			}
		default:
			FillRandom(dst, cfg.Seed+int64(idx)*131071+s)
		}
	}
	return out
}

// TotalBytes returns the dataset's logical size.
func (g *CloudGen) TotalBytes() int64 {
	return int64(g.cfg.Objects) * g.cfg.ObjectSize
}
