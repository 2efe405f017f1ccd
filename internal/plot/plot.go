// Package plot renders small ASCII line charts so the benchmark harness can
// show each reproduced figure directly in the terminal, next to the numeric
// series.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one plotted line.
type Series struct {
	Name string
	X, Y []float64
}

// markers assigned to series in order.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Render draws the series on a width x height character grid with axis
// annotations. Lines are point markers only (no interpolation); overlapping
// points show the later series' marker.
func Render(title, xlabel, ylabel string, series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			any = true
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if !any {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mk := markers[si%len(markers)]
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			col := int(math.Round((s.X[i] - minX) / (maxX - minX) * float64(width-1)))
			row := height - 1 - int(math.Round((s.Y[i]-minY)/(maxY-minY)*float64(height-1)))
			grid[row][col] = mk
		}
	}
	fmt.Fprintf(&b, "%s\n", ylabel)
	fmt.Fprintf(&b, "%10.4g ┤%s\n", maxY, string(grid[0]))
	for r := 1; r < height-1; r++ {
		fmt.Fprintf(&b, "%10s │%s\n", "", string(grid[r]))
	}
	fmt.Fprintf(&b, "%10.4g ┤%s\n", minY, string(grid[height-1]))
	fmt.Fprintf(&b, "%10s └%s\n", "", strings.Repeat("─", width))
	fmt.Fprintf(&b, "%11s%-10.4g%s%10.4g\n", "", minX, strings.Repeat(" ", max(1, width-20)), maxX)
	fmt.Fprintf(&b, "%11s%s\n", "", xlabel)
	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	fmt.Fprintf(&b, "%11s%s\n", "", strings.Join(legend, "   "))
	return b.String()
}
