package main

// Example runs the program as `go run` does and pins its output.
func Example() {
	main()
	// Output:
	// replaying a recorded two-burst trace (looped, 1s):
	// ondemand  p99=  7.965ms violated=true  energy=  28.2J
	// nmap      p99=  0.222ms violated=false energy=  31.9J
}
