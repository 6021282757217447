package main

// Example runs the program as `go run` does and pins its output.
func Example() {
	main()
	// Output:
	// custom two-step governor vs ondemand (memcached, high load):
	// two-step   p99=  6.469ms violated=true  energy=  40.5J transitions=168
	// ondemand   p99=  6.469ms violated=true  energy=  40.9J transitions=248
}
