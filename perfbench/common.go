package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/pa"
)

// readTable parses one "== id: title" table of a results file into
// row key (first column) -> column name -> cell.
func readTable(root, file, id string) (map[string]map[string]string, error) {
	f, err := os.Open(filepath.Join(root, file))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var cols []string
	in := false
	rows := make(map[string]map[string]string)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "== "+id+":"):
			in = true
		case !in:
		case cols == nil:
			cols = strings.Fields(line)
		case strings.HasPrefix(line, "---"):
		case line == "" || strings.HasPrefix(line, " "):
			return rows, nil
		default:
			cells := strings.Fields(line)
			row := make(map[string]string, len(cells))
			for i, c := range cells {
				if i < len(cols) {
					row[cols[i]] = c
				}
			}
			rows[cells[0]] = row
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no table %q", file, id)
	}
	return rows, nil
}

// paSink keeps the PA probe's results live.
var paSink uint64

// paProbe times the pointer-authentication primitives over a fixed
// loop; the numbers do not depend on the workload. Multiplied by a
// scheme's vm.sim_pa_instrs they give PA's share of its run time.
func paProbe(rep *report) {
	const n = 1 << 20
	k := pa.NewKeySet(42).APDA
	timeOp := func(f func(i uint64) uint64) float64 {
		start := time.Now()
		var acc uint64
		for i := uint64(0); i < n; i++ {
			acc ^= f(i)
		}
		paSink ^= acc
		return float64(time.Since(start).Nanoseconds()) / n
	}
	const ptr = 0x0000_7fff_1234_5670
	signed := pa.Sign(ptr, 7, k)
	rep.layer["pa.sign_ns"] = timeOp(func(i uint64) uint64 { return pa.Sign(ptr+i<<4, i, k) })
	rep.layer["pa.auth_ns"] = timeOp(func(i uint64) uint64 {
		p, _ := pa.Auth(signed, 7+i&1, k)
		return p
	})
	rep.layer["pa.generic_mac_ns"] = timeOp(func(i uint64) uint64 { return pa.GenericMAC(i, 7, k) })
}
