// Command tick is the fixture's only reader.
package main

import (
	"fmt"

	"reach/internal/clock"
)

func main() {
	fmt.Println(clock.Elapsed(clock.Quartz{}, 3).Seconds())
}
