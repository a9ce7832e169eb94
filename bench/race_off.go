//go:build !race

package main

const raceBuild = false
