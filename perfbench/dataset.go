package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/quake"
)

// Every workload renders a solver-generated graded-basin dataset of the
// repository's Medium size: a broad slow basin that refines to octree
// level 6 over level-4 surface rock and level-3 deep rock (about 31k
// nodes and 27k cells), shaken by a double-couple source. The seed moves
// the source within a small box near the basin centre, so each seed gets
// its own wave field while the rendering cost stays close to that of
// every other seed.
const (
	outEvery = 6 // solver steps per stored timestep
)

// seedRand returns the generator for one aspect of a run's inputs. Each
// aspect draws from its own stream, so adding a draw to one never shifts
// another.
func seedRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

const (
	streamSource = iota + 1
	streamCamera
	streamSchedule
)

// sourcePos is the seeded hypocentre in unit-domain coordinates.
func sourcePos(seed int64) [3]float64 {
	r := seedRand(seed, streamSource)
	return [3]float64{0.44 + 0.02*r.Float64(), 0.54 + 0.02*r.Float64(), 0.30}
}

// makeDataset runs the solver and stores steps timesteps in memory.
func makeDataset(seed int64, steps int) (*pfs.MemStore, *mesh.Mesh, error) {
	model := &quake.BasinModel{
		VsSurface: 800, VsBottom: 3200,
		Cx: 0.5, Cy: 0.5, Rx: 0.5, Ry: 0.45, Rz: 0.3,
		VsBasin:  200,
		VpOverVs: 1.8, Rho: 2300, Rim: 0.7,
	}
	cfg := mesh.Config{Domain: 20000, FMax: 0.16, PointsPerWave: 4, MaxLevel: 6, MinLevel: 3}
	m, err := mesh.Generate(cfg, model)
	if err != nil {
		return nil, nil, fmt.Errorf("generating mesh: %w", err)
	}
	s, err := quake.NewSolver(m, quake.DefaultSolverConfig())
	if err != nil {
		return nil, nil, fmt.Errorf("building solver: %w", err)
	}
	s.AddSource(quake.NewDoubleCouple(s, sourcePos(seed), 0.04, 1e13, 0.5))
	st := pfs.NewMemStore()
	if _, err := quake.ProduceDataset(s, st, quake.RunConfig{Steps: steps * outEvery, OutEvery: outEvery}); err != nil {
		return nil, nil, fmt.Errorf("producing dataset: %w", err)
	}
	return st, m, nil
}
