package engine

import (
	"reflect"
	"testing"
)

func TestSplitBudget(t *testing.T) {
	cases := []struct {
		budget, parts int
		want          []int
	}{
		{8, 5, []int{2, 2, 2, 1, 1}},
		{4, 4, []int{1, 1, 1, 1}},
		{2, 5, []int{1, 1, 1, 1, 1}},
		{1, 3, []int{1, 1, 1}},
		{0, 2, []int{1, 1}},
		{9, 2, []int{5, 4}},
		{3, 0, nil},
	}
	for _, tc := range cases {
		if got := splitBudget(tc.budget, tc.parts); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitBudget(%d, %d) = %v, want %v", tc.budget, tc.parts, got, tc.want)
		}
	}
}
