package main

import (
	"reflect"
	"testing"

	"reco/internal/experiments"
)

func TestExpandExpList(t *testing.T) {
	registry := experiments.Registry()
	order := experiments.Order()

	ids, err := expandExpList("all", registry)
	if err != nil {
		t.Fatalf("all: %v", err)
	}
	if !reflect.DeepEqual(ids, order) {
		t.Fatalf("all = %v, want Order() %v", ids, order)
	}

	ids, err = expandExpList("all,kcore", registry)
	if err != nil {
		t.Fatalf("all,kcore: %v", err)
	}
	if !reflect.DeepEqual(ids, append(append([]string{}, order...), "kcore")) {
		t.Fatalf("all,kcore = %v, want Order() plus kcore", ids)
	}

	ids, err = expandExpList("kcore, admission ,kcore", registry)
	if err != nil {
		t.Fatalf("dup list: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"kcore", "admission"}) {
		t.Fatalf("dup list = %v, want [kcore admission]", ids)
	}

	if _, err := expandExpList("all,definitely-not-real", registry); err == nil {
		t.Error("unknown id accepted")
	}
	if _, err := expandExpList("kcore,,admission", registry); err == nil {
		t.Error("empty id accepted")
	}
}
